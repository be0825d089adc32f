//! The sharded fleet simulation: demand → dispatch → vehicle ticks →
//! ordered merge.
//!
//! Every tick runs four phases:
//!
//! 1. **Arrivals** (serial): the seeded Poisson generator appends this
//!    tick's requests to the FIFO queue. Its minimum-trip test is settled
//!    by straight-line distance for all but near pairs, so arrivals run
//!    (almost) no route search.
//! 2. **Dispatch**: strict-FIFO — the head request goes to the nearest
//!    available vehicle, ties broken on the lower vehicle id. Two
//!    implementations produce identical bytes: the retained
//!    [`DispatchMode::Linear`] reference (serial O(V) scan per request)
//!    and the default [`DispatchMode::Indexed`] path — a spatial-index
//!    ring search per request, fanned across the `WorkerPool` in
//!    config-fixed chunks against a **pre-dispatch snapshot** of the
//!    fleet, followed by a serial FIFO commit pass that resolves
//!    conflicts exactly as the incremental scan would (see
//!    [`FleetSim::phase_dispatch`]). Every distance comes from the route
//!    oracle ([`RouteCache`]): resident fields when every lane's field
//!    fits the byte budget, else one goal-directed leg search per query.
//!    The winner leaves with the lane paths of its pickup and drop-off
//!    legs, taken from the same source.
//! 3. **Advance** (sharded): the vehicle array is split into fixed-size
//!    chunks via [`for_chunks`]; each chunk steps its vehicles. Chunk
//!    boundaries depend only on fleet size and the configured chunk size
//!    — never on the worker count — and a step touches nothing but its
//!    own vehicle plus shared immutable state, so any pool produces the
//!    same bytes as the serial sweep (the DESIGN.md §8 argument applied
//!    to a new job shape).
//! 4. **Merge** (serial): completed-ride events drain in ascending
//!    vehicle id order into the wait/travel summaries and the running
//!    checksum, and rides returned by the stall-timeout coupling go back
//!    to the **head** of the queue in ascending request-id order.
//!
//! Because phases 1 and 4 are serial, phase 3 is boundary-deterministic
//! and write-disjoint, and phase 2's parallel stage is a read-only search
//! against a snapshot whose results are committed serially in FIFO order,
//! [`FleetSim::report`] is byte-identical for every dispatch mode, worker
//! count, shard size, and route-cache budget — the property the
//! proptests and the `fleet_matrix` bench gate on. All search scratch is
//! owned by the simulation (one for the serial phases inside its
//! [`RouteCache`], one per dispatch chunk), so a fresh simulation repeats
//! its allocations exactly.

use crate::graph::{RouteCache, RouteScratch, RouteTable};
use crate::index::{CandidateList, SpatialIndex, MAX_CANDIDATES};
use crate::request::{RideGen, RideRequest};
use crate::vehicle::{Assignment, FleetVehicle, StepParams};
use sov_math::stats::Summary;
use sov_runtime::pool::{for_chunks, WorkerPool};
use sov_vehicle::battery::{table1_total_pad_w, DrivingTimeModel};
use sov_vehicle::cost::TcoModel;
use sov_world::map::grid_network;
use std::collections::VecDeque;

/// SplitMix64-style fold used for the report checksum and the stall-fault
/// draw: cheap, stateless, and identical on every platform.
#[must_use]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// A stall-fault injection plan: during `[from_tick, until_tick)` a fixed
/// pseudo-random subset of vehicles freezes in place (perception outage,
/// e-stop), still drawing idle power.
///
/// The draw is a pure function of `(seed, vehicle id)` — no state, no
/// iteration order — so fault injection cannot perturb the serial/sharded
/// byte-identity invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaultPlan {
    /// Seed of the per-vehicle draw.
    pub seed: u64,
    /// First stalled tick (inclusive).
    pub from_tick: u64,
    /// First tick after the stall window (exclusive).
    pub until_tick: u64,
    /// Fraction of the fleet affected, in `[0, 1]`.
    pub fraction: f64,
}

impl FleetFaultPlan {
    /// Whether `vehicle` is stalled at `tick`.
    #[must_use]
    pub fn stalled(&self, vehicle: u32, tick: u64) -> bool {
        if tick < self.from_tick || tick >= self.until_tick {
            return false;
        }
        let draw = mix(self.seed, u64::from(vehicle) + 1);
        (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.fraction
    }
}

/// Which dispatcher implementation serves the queue.
///
/// Both produce byte-identical reports; `Linear` is retained as the
/// executable specification the indexed path is proptested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Serial O(V) scan per request — the 0.9.0 reference semantics.
    Linear,
    /// Spatial-index ring search, sharded over the worker pool, with a
    /// serial FIFO conflict-resolution commit. Falls back to `Linear`
    /// when the map's lane connections are not geometrically contiguous
    /// ([`RouteTable::max_connection_gap_m`]` > 0`), where the index's
    /// Euclidean pruning bound would be unsound.
    Indexed,
}

/// Deterministic dispatch work counters.
///
/// Deliberately **not** part of [`FleetReport`]: the report must stay
/// byte-identical across dispatch modes, while these counters are exactly
/// what differs (the indexed path's reason to exist). Every field is a
/// pure function of config + seed — identical across worker counts — and
/// `fleet_matrix` records them per cell and gates the ≥ 2× evaluation
/// reduction on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Vehicle-to-pickup distance evaluations performed by dispatch.
    pub distance_evals: u64,
    /// Rides assigned to vehicles.
    pub dispatched: u64,
    /// Rides returned to the queue by the stall-timeout coupling.
    pub requeues: u64,
    /// Commit-pass conflicts that exhausted a candidate list and re-ran
    /// the ring search against the claimed set.
    pub fallback_searches: u64,
    /// Route lookups served from a resident field.
    pub route_cache_hits: u64,
    /// Route searches run: resident-field fills and goal-directed legs.
    pub route_cache_misses: u64,
    /// Lanes settled by those searches (a full field settles every lane).
    /// Summed per dispatch chunk, so it is worker-invariant too.
    pub settled_lanes: u64,
}

/// Fleet workload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of vehicles.
    pub vehicles: u32,
    /// Demand-generator seed.
    pub seed: u64,
    /// Ticks to simulate in [`FleetSim::run`].
    pub ticks: u64,
    /// Tick length (seconds).
    pub tick_s: f64,
    /// Mean ride requests per tick (Poisson rate).
    pub requests_per_tick: f64,
    /// Minimum direct trip distance (meters).
    pub min_trip_m: f64,
    /// Street-grid rows (intersections).
    pub grid_rows: u32,
    /// Street-grid columns (intersections).
    pub grid_cols: u32,
    /// Block edge length (meters).
    pub block_m: f64,
    /// Speed limit of every grid lane (m/s).
    pub lane_speed_mps: f64,
    /// Battery capacity per vehicle (kWh).
    pub capacity_kwh: f64,
    /// Electrical load while driving (kW).
    pub drive_load_kw: f64,
    /// Electrical load while idle (kW) — the always-on autonomy stack.
    pub idle_load_kw: f64,
    /// Charging stall power (kW).
    pub charge_rate_kw: f64,
    /// State of charge below which an off-duty vehicle charges.
    pub reserve_soc: f64,
    /// Control-kernel lookahead samples per driving tick.
    pub lookahead: u32,
    /// Shard size: vehicles per parallel chunk. Part of the workload
    /// definition — chunk boundaries must not depend on the worker count.
    pub chunk: usize,
    /// Dispatcher implementation (byte-identical either way).
    pub dispatch: DispatchMode,
    /// Shard size of the sharded candidate search: queued requests per
    /// parallel chunk. Config-fixed for the same reason as `chunk`.
    pub dispatch_chunk: usize,
    /// Route-cache memory budget (bytes). All or nothing
    /// ([`RouteCache::fits`]): when every lane's field fits (`8 · lanes²`
    /// bytes; the default 12 MiB holds the 12×12 grid's 2.2 MB) fields
    /// fill lazily and stay resident; otherwise (the 40×40 grid would
    /// need 311 MB) none is kept and every query is a goal-directed leg
    /// search. Changes work done, never bytes produced.
    pub route_cache_bytes: usize,
    /// Spatial-index bucket edge length (meters).
    pub index_cell_m: f64,
    /// Consecutive stalled ticks before a not-yet-picked-up ride returns
    /// to the head of the queue (`None` disables the coupling).
    pub stall_requeue_ticks: Option<u64>,
    /// Cost model for the per-ride economics.
    pub tco: TcoModel,
    /// Optional stall-fault injection.
    pub fault: Option<FleetFaultPlan>,
}

impl FleetConfig {
    /// The paper-derived fleet: PerceptIn pod battery/power numbers
    /// (6 kWh pack, 0.6 kW base load, 175 W autonomy draw — Table I /
    /// Eq. 2) on a 12×12-intersection street grid, demand calibrated to
    /// ≈ 70 % vehicle utilization.
    #[must_use]
    pub fn perceptin_fleet(vehicles: u32) -> Self {
        assert!(vehicles > 0, "a fleet needs at least one vehicle");
        let model = DrivingTimeModel::perceptin_defaults();
        let pad_kw = table1_total_pad_w() / 1000.0;
        Self {
            vehicles,
            seed: 9,
            ticks: 3600,
            tick_s: 1.0,
            requests_per_tick: f64::from(vehicles) * 0.0045,
            min_trip_m: 150.0,
            grid_rows: 12,
            grid_cols: 12,
            block_m: 80.0,
            lane_speed_mps: 5.6,
            capacity_kwh: model.capacity_kwh,
            drive_load_kw: model.base_load_kw + pad_kw,
            idle_load_kw: pad_kw,
            charge_rate_kw: 6.0,
            reserve_soc: 0.15,
            lookahead: 8,
            chunk: 64,
            dispatch: DispatchMode::Indexed,
            dispatch_chunk: 16,
            route_cache_bytes: 12 << 20,
            index_cell_m: 80.0,
            stall_requeue_ticks: Some(90),
            tco: TcoModel::tourist_site_defaults(),
            fault: None,
        }
    }

    /// Paper operating day (Sec. III-B): 10 hours.
    pub const OPERATING_HOURS_PER_DAY: f64 = 10.0;
}

/// Deterministic aggregate report of a fleet run.
///
/// Every field is computed on the serial phases in a fixed order, so two
/// runs of the same [`FleetConfig`] — serial or sharded over any pool,
/// linear or indexed dispatch, any route-cache budget — compare equal
/// field for field, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet size.
    pub vehicles: u32,
    /// Ticks simulated.
    pub ticks: u64,
    /// Tick length (seconds).
    pub tick_s: f64,
    /// Ride requests generated.
    pub requests: u64,
    /// Rides completed (picked up and dropped off).
    pub rides_completed: u64,
    /// Rides assigned but not finished when the run ended.
    pub rides_in_progress: u64,
    /// Requests still queued when the run ended.
    pub rides_unserved: u64,
    /// Per-ride wait time: request arrival → pickup (seconds).
    pub wait_s: Summary,
    /// Per-ride travel time: pickup → drop-off (seconds).
    pub travel_s: Summary,
    /// Total fleet distance driven (km).
    pub distance_km: f64,
    /// Total energy drawn from batteries (kWh).
    pub energy_kwh: f64,
    /// Accumulated control-kernel effort (radians of lookahead heading
    /// change) — ties the checksum to the parallel kernel's arithmetic.
    pub control_effort: f64,
    /// Fraction of vehicle-ticks spent driving.
    pub utilization: f64,
    /// Fraction of vehicle-ticks spent charging (Eq. 2 availability cost).
    pub charging_fraction: f64,
    /// Vehicle-ticks lost to injected stall faults.
    pub stalled_ticks: u64,
    /// Peak request-queue depth observed (after arrivals, before
    /// dispatch).
    pub peak_queue: usize,
    /// Energy per completed ride (kWh); 0 when no rides completed.
    pub energy_per_ride_kwh: f64,
    /// Pro-rated TCO per completed ride (USD); 0 when no rides completed.
    pub cost_per_ride_usd: f64,
    /// Eq. 2 driving time lost to the autonomy load, pro-rated over the
    /// charge actually consumed (hours).
    pub autonomy_time_lost_h: f64,
    /// Order-sensitive fold over every completed ride, every requeue, and
    /// the final aggregates — the cheap byte-identity witness the bench
    /// gates on.
    pub checksum: u64,
}

/// One dispatch chunk's share of the sharded candidate search: its
/// requests' candidate lists and drop-off lane paths, and the scratch for
/// their leg searches.
#[derive(Debug, Default)]
struct DispatchShard {
    cands: Vec<CandidateList>,
    dropoffs: Vec<Vec<u32>>,
    scratch: RouteScratch,
}

/// Gives `req` to `vehicle` with the lane paths of both legs: the pickup
/// leg is routed here into `pickup` (from the resident field, whose lookup
/// was counted when the candidates were ranked, or by a leg search — the
/// source every distance of this dispatch came from), the drop-off leg is
/// given.
fn assign_ride(
    cache: &mut RouteCache,
    table: &RouteTable,
    vehicle: &mut FleetVehicle,
    req: &RideRequest,
    tick: u64,
    pickup: &mut Vec<u32>,
    dropoff: &[u32],
) {
    let from = vehicle.pos;
    match cache.resident(req.origin.lane) {
        Some(field) => table.path_with(from, req.origin, field, pickup),
        None => cache
            .to(table, req.origin.lane)
            .path_into(table, from, req.origin, pickup),
    }
    vehicle.assign(req, tick, pickup, dropoff);
}

/// The fleet simulation state.
#[derive(Debug)]
pub struct FleetSim {
    cfg: FleetConfig,
    table: RouteTable,
    cache: RouteCache,
    index: Option<SpatialIndex>,
    gen: RideGen,
    vehicles: Vec<FleetVehicle>,
    queue: VecDeque<RideRequest>,
    tick: u64,
    /// Which phase runs next (0 = arrivals … 3 = merge): phases are
    /// public so the bench can time them individually, and this guard
    /// keeps external callers honest about the order.
    phase: u8,
    wait_s: Summary,
    travel_s: Summary,
    rides_completed: u64,
    peak_queue: usize,
    checksum: u64,
    /// Dispatch counters; its route fields hold only the sharded stage's
    /// searches (the cache counts the serial ones).
    stats: DispatchStats,
    // Retained scratch (capacity reused every tick; steady state does not
    // grow any of these).
    arrivals: Vec<RideRequest>,
    batch: Vec<RideRequest>,
    shards: Vec<DispatchShard>,
    /// Lane paths of the ride being assigned (copied into the vehicle;
    /// indexed dispatch keeps drop-off paths in its shards).
    pickup: Vec<u32>,
    dropoff: Vec<u32>,
    /// Claim stamps for the commit pass: `claimed[v] == tick + 1` marks
    /// vehicle `v` as taken this tick (no per-tick clearing needed).
    claimed: Vec<u64>,
    requeued: Vec<Assignment>,
}

impl FleetSim {
    /// Builds the street grid, compiles the routing tables, and spreads
    /// the fleet uniformly by arclength over the network.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (no vehicles, non-positive
    /// tick, chunk, or index cell, or a grid smaller than 2×2).
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.vehicles > 0, "a fleet needs at least one vehicle");
        assert!(cfg.tick_s > 0.0, "tick length must be positive");
        assert!(cfg.chunk > 0, "chunk size must be positive");
        assert!(
            cfg.dispatch_chunk > 0,
            "dispatch chunk size must be positive"
        );
        let map = grid_network(
            cfg.grid_rows,
            cfg.grid_cols,
            cfg.block_m,
            2.5,
            cfg.lane_speed_mps,
        );
        let table = RouteTable::new(&map);
        // The index's ring pruning lower-bounds road distance with
        // straight-line distance, which is only sound when successive
        // lanes touch. grid_network guarantees it exactly; for any other
        // geometry the indexed mode silently serves via the linear
        // reference (reports are mode-invariant, so this is safe).
        let index = (cfg.dispatch == DispatchMode::Indexed && table.max_connection_gap_m() == 0.0)
            .then(|| SpatialIndex::new(&table, cfg.index_cell_m));
        let cache = RouteCache::new(&table, cfg.route_cache_bytes);
        let vehicles: Vec<FleetVehicle> = (0..cfg.vehicles)
            .map(|i| {
                let u = (f64::from(i) + 0.5) / f64::from(cfg.vehicles);
                FleetVehicle::new(i, table.sample(u), cfg.capacity_kwh)
            })
            .collect();
        let gen = RideGen::new(cfg.seed, cfg.requests_per_tick, cfg.min_trip_m);
        let claimed = vec![0u64; vehicles.len()];
        Self {
            cfg,
            table,
            cache,
            index,
            gen,
            vehicles,
            queue: VecDeque::new(),
            tick: 0,
            phase: 0,
            wait_s: Summary::new(),
            travel_s: Summary::new(),
            rides_completed: 0,
            peak_queue: 0,
            checksum: 0x5056_2d46_4c45_4554, // "PV-FLEET"
            stats: DispatchStats::default(),
            arrivals: Vec::new(),
            batch: Vec::new(),
            shards: Vec::new(),
            pickup: Vec::new(),
            dropoff: Vec::new(),
            claimed,
            requeued: Vec::new(),
        }
    }

    /// The compiled routing tables (for callers placing extra demand).
    #[must_use]
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// The route cache (its residency and hit/miss counters).
    #[must_use]
    pub fn route_cache(&self) -> &RouteCache {
        &self.cache
    }

    /// The configuration this simulation runs.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Ticks executed so far.
    #[must_use]
    pub fn ticks_run(&self) -> u64 {
        self.tick
    }

    /// Read-only view of the fleet.
    #[must_use]
    pub fn vehicles(&self) -> &[FleetVehicle] {
        &self.vehicles
    }

    /// Deterministic dispatch work counters (identical for every worker
    /// count; differ across dispatch modes — that difference is the
    /// speedup the bench records).
    #[must_use]
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats {
            route_cache_hits: self.cache.hits(),
            route_cache_misses: self.cache.misses() + self.stats.route_cache_misses,
            settled_lanes: self.cache.settled_lanes() + self.stats.settled_lanes,
            ..self.stats
        }
    }

    /// Runs one tick. `pool` shards the dispatch candidate search and the
    /// vehicle advance; `None` runs the identical chunks serially
    /// (bit-identical output either way).
    pub fn tick_once(&mut self, pool: Option<&WorkerPool>) {
        self.phase_arrivals();
        self.phase_dispatch(pool);
        self.phase_advance(pool);
        self.phase_merge();
    }

    /// Phase 1 — arrivals (serial; one seeded stream through one cache).
    ///
    /// # Panics
    ///
    /// Panics if called out of phase order.
    pub fn phase_arrivals(&mut self) {
        assert_eq!(self.phase, 0, "phase_arrivals out of order");
        self.phase = 1;
        self.gen
            .generate(self.tick, &self.table, &mut self.cache, &mut self.arrivals);
        for r in self.arrivals.drain(..) {
            self.queue.push_back(r);
        }
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Phase 2 — strict-FIFO dispatch: the head request goes to the
    /// nearest available vehicle (shortest driving distance to the
    /// pickup, ties broken on the lower vehicle id); when no vehicle is
    /// available the queue waits.
    ///
    /// # Panics
    ///
    /// Panics if called out of phase order.
    pub fn phase_dispatch(&mut self, pool: Option<&WorkerPool>) {
        assert_eq!(self.phase, 1, "phase_dispatch out of order");
        self.phase = 2;
        if self.index.is_some() {
            self.dispatch_indexed(pool);
        } else {
            self.dispatch_linear();
        }
    }

    /// Phase 3 — sharded vehicle advance (fixed chunks, write-disjoint).
    ///
    /// # Panics
    ///
    /// Panics if called out of phase order.
    pub fn phase_advance(&mut self, pool: Option<&WorkerPool>) {
        assert_eq!(self.phase, 2, "phase_advance out of order");
        self.phase = 3;
        let params = StepParams {
            table: &self.table,
            tick: self.tick,
            dt_s: self.cfg.tick_s,
            drive_load_kw: self.cfg.drive_load_kw,
            idle_load_kw: self.cfg.idle_load_kw,
            charge_rate_kw: self.cfg.charge_rate_kw,
            reserve_soc: self.cfg.reserve_soc,
            lookahead: self.cfg.lookahead,
            fault: self.cfg.fault.as_ref(),
            stall_requeue_ticks: self.cfg.stall_requeue_ticks,
        };
        for_chunks(pool, &mut self.vehicles, self.cfg.chunk, |_, chunk| {
            for v in chunk {
                v.step(&params);
            }
        });
    }

    /// Phase 4 — ordered merge (serial): completed rides drain in
    /// ascending vehicle id; stall-returned rides go back to the **head**
    /// of the queue in ascending request id (the oldest abandoned request
    /// is served first — strict FIFO restored deterministically).
    ///
    /// # Panics
    ///
    /// Panics if called out of phase order.
    pub fn phase_merge(&mut self) {
        assert_eq!(self.phase, 3, "phase_merge out of order");
        self.phase = 0;
        let dt = self.cfg.tick_s;
        for v in &mut self.vehicles {
            for e in v.completed.drain(..) {
                self.wait_s.record(e.wait_ticks as f64 * dt);
                self.travel_s.record(e.travel_ticks as f64 * dt);
                self.rides_completed += 1;
                self.checksum = mix(self.checksum, e.request_id);
                self.checksum = mix(self.checksum, e.wait_ticks);
                self.checksum = mix(self.checksum, e.travel_ticks ^ (u64::from(v.id) << 32));
            }
            if let Some(a) = v.returned.take() {
                self.requeued.push(a);
            }
        }
        if !self.requeued.is_empty() {
            // Ascending request id, then push_front in reverse: the queue
            // head ends up in original arrival order.
            self.requeued.sort_unstable_by_key(|a| a.request_id);
            while let Some(a) = self.requeued.pop() {
                self.stats.requeues += 1;
                self.checksum = mix(self.checksum, a.request_id ^ 0x5245_5155_4555_4544);
                self.queue.push_front(a.to_request());
            }
        }
        self.tick += 1;
    }

    /// Runs the configured number of ticks and returns the report.
    pub fn run(&mut self, pool: Option<&WorkerPool>) -> FleetReport {
        for _ in 0..self.cfg.ticks {
            self.tick_once(pool);
        }
        self.report()
    }

    /// The retained linear-scan dispatcher: the executable specification
    /// of dispatch semantics, and the serving path for maps the spatial
    /// index cannot prune soundly.
    fn dispatch_linear(&mut self) {
        while let Some(&req) = self.queue.front() {
            let target = req.origin;
            let mut route = self.cache.to(&self.table, target.lane);
            let mut best: Option<(f64, u32)> = None;
            for v in &self.vehicles {
                if !v.is_available() {
                    continue;
                }
                self.stats.distance_evals += 1;
                let d = route.distance(&self.table, v.pos, target);
                let better = match best {
                    None => true,
                    Some((bd, _)) => d < bd,
                };
                if better {
                    best = Some((d, v.id));
                }
            }
            let Some((_, id)) = best else {
                break;
            };
            let req = self.queue.pop_front().expect("front checked above");
            self.cache.to(&self.table, req.dest.lane).path_into(
                &self.table,
                req.origin,
                req.dest,
                &mut self.dropoff,
            );
            assign_ride(
                &mut self.cache,
                &self.table,
                &mut self.vehicles[id as usize],
                &req,
                self.tick,
                &mut self.pickup,
                &self.dropoff,
            );
            self.stats.dispatched += 1;
        }
    }

    /// Indexed + sharded dispatch. Equivalence with the linear scan:
    ///
    /// * `batch_n = min(queue, available)` requests will all be served —
    ///   the linear loop assigns exactly one vehicle per iteration until
    ///   the queue or the available set runs dry, and nothing else
    ///   changes availability within the phase.
    /// * The parallel stage searches a **snapshot** (index rebuilt before
    ///   the batch; no writes until commit), so every candidate list is
    ///   the exact top-`MAX_CANDIDATES` of `(distance, id)` over the
    ///   pre-dispatch fleet — independent of worker count and batch
    ///   order. Its distances come from resident fields filled by a
    ///   serial pre-pass, or from leg searches in each chunk's own
    ///   scratch; both are exact. The same stage routes each request's
    ///   drop-off leg, which does not depend on the winner.
    /// * The serial commit walks the batch in FIFO order. For request
    ///   `i`, vehicles claimed by requests `< i` are exactly the ones the
    ///   linear scan would have seen as busy; the first unclaimed
    ///   candidate is therefore the linear scan's winner (any vehicle
    ///   outside the list ranks after every list entry). If all
    ///   candidates are claimed, the ring search re-runs with the claimed
    ///   set as its skip predicate — same comparator, so same winner.
    fn dispatch_indexed(&mut self, pool: Option<&WorkerPool>) {
        let avail = self.vehicles.iter().filter(|v| v.is_available()).count();
        let batch_n = avail.min(self.queue.len());
        if batch_n == 0 {
            return;
        }
        self.batch.clear();
        self.batch.extend(self.queue.iter().take(batch_n).copied());
        // Serial pre-pass: a resident cache fills (and counts) each
        // request's pickup and drop-off fields here, so the parallel stage
        // only reads them.
        if self.cache.is_resident() {
            for r in &self.batch {
                let _ = self.cache.to(&self.table, r.origin.lane);
                let _ = self.cache.to(&self.table, r.dest.lane);
            }
        }
        let index = self
            .index
            .as_mut()
            .expect("indexed dispatch requires index");
        index.rebuild(
            &self.table,
            self.vehicles
                .iter()
                .filter(|v| v.is_available())
                .map(|v| (v.id, v.pos)),
        );
        // Sharded candidate search against the snapshot: one shard per
        // config-fixed chunk of the batch.
        let dc = self.cfg.dispatch_chunk;
        let n_shards = batch_n.div_ceil(dc);
        if self.shards.len() < n_shards {
            self.shards.resize_with(n_shards, DispatchShard::default);
        }
        {
            let index: &SpatialIndex = self.index.as_ref().expect("built above");
            let table = &self.table;
            let cache = &self.cache;
            let batch: &[RideRequest] = &self.batch;
            let vehicles: &[FleetVehicle] = &self.vehicles;
            for_chunks(pool, &mut self.shards[..n_shards], 1, |k, shards| {
                for shard in shards {
                    let start = k * dc;
                    let len = dc.min(batch_n - start);
                    shard.cands.clear();
                    shard.cands.resize(len, CandidateList::default());
                    if shard.dropoffs.len() < len {
                        shard.dropoffs.resize_with(len, Vec::new);
                    }
                    for (j, (out, dropoff)) in
                        shard.cands.iter_mut().zip(&mut shard.dropoffs).enumerate()
                    {
                        let i = start + j;
                        // Request i can lose at most i candidates to
                        // earlier commits, so the top-(i + 1) suffice for
                        // an exact winner; deeper batches rely on the
                        // fallback re-search. Depth depends only on the
                        // batch position — never on the worker count.
                        let depth = (i + 1).min(MAX_CANDIDATES);
                        let (target, dest) = (batch[i].origin, batch[i].dest);
                        let mut to_origin = cache.shared_to(target.lane, &mut shard.scratch);
                        index.nearest(
                            table,
                            target,
                            depth,
                            |id| vehicles[id as usize].pos,
                            |_| false,
                            |from| to_origin.distance(table, from, target),
                            out,
                        );
                        cache
                            .shared_to(dest.lane, &mut shard.scratch)
                            .path_into(table, target, dest, dropoff);
                    }
                }
            });
        }
        for shard in &mut self.shards[..n_shards] {
            self.stats.route_cache_misses += shard.scratch.searches();
            self.stats.settled_lanes += shard.scratch.settled_lanes();
            shard.scratch.reset_counters();
        }
        // Serial FIFO commit: conflict resolution in request order.
        let stamp = self.tick + 1;
        for i in 0..batch_n {
            let cands = self.shards[i / dc].cands[i % dc];
            self.stats.distance_evals += u64::from(cands.evals);
            let winner = cands
                .iter()
                .find(|c| self.claimed[c.id as usize] != stamp)
                .copied();
            let chosen = match winner {
                Some(c) => c,
                None => {
                    // Every snapshot candidate was claimed by an earlier
                    // request: re-search, skipping the claimed set. An
                    // unclaimed available vehicle exists because
                    // batch_n ≤ available and only i < batch_n claims
                    // happened so far.
                    self.stats.fallback_searches += 1;
                    let index = self.index.as_ref().expect("built above");
                    let (table, vehicles, claimed) = (&self.table, &self.vehicles, &self.claimed);
                    let target = self.batch[i].origin;
                    let mut route = self.cache.to(table, target.lane);
                    let mut out = CandidateList::default();
                    index.nearest(
                        table,
                        target,
                        1,
                        |id| vehicles[id as usize].pos,
                        |id| claimed[id as usize] == stamp,
                        |from| route.distance(table, from, target),
                        &mut out,
                    );
                    self.stats.distance_evals += u64::from(out.evals);
                    out.get(0).expect("an unclaimed available vehicle remains")
                }
            };
            self.claimed[chosen.id as usize] = stamp;
            let req = self.queue.pop_front().expect("batch prefix of the queue");
            assign_ride(
                &mut self.cache,
                &self.table,
                &mut self.vehicles[chosen.id as usize],
                &req,
                self.tick,
                &mut self.pickup,
                &self.shards[i / dc].dropoffs[i % dc],
            );
            self.stats.dispatched += 1;
        }
    }

    /// Builds the aggregate report from the current state. All sums run
    /// serially in ascending vehicle id order.
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let mut distance_m = 0.0;
        let mut energy_kwh = 0.0;
        let mut control_effort = 0.0;
        let mut driving_ticks = 0u64;
        let mut charging_ticks = 0u64;
        let mut stalled_ticks = 0u64;
        let mut in_progress = 0u64;
        for v in &self.vehicles {
            distance_m += v.odometer_m;
            energy_kwh += v.energy_kwh;
            control_effort += v.control_effort;
            driving_ticks += v.driving_ticks;
            charging_ticks += v.charging_ticks;
            stalled_ticks += v.stalled_ticks;
            in_progress += u64::from(v.assignment().is_some());
        }
        let vehicle_ticks = u64::from(self.cfg.vehicles) * self.tick;
        let frac = |n: u64| {
            if vehicle_ticks == 0 {
                0.0
            } else {
                n as f64 / vehicle_ticks as f64
            }
        };
        let per_ride = |total: f64| {
            if self.rides_completed == 0 {
                0.0
            } else {
                total / self.rides_completed as f64
            }
        };
        // Eq. 2 pro-rated over consumed charge: the autonomy draw costs
        // `reduced_driving_time_h` per full battery.
        let eq2 = DrivingTimeModel {
            capacity_kwh: self.cfg.capacity_kwh,
            base_load_kw: self.cfg.drive_load_kw - self.cfg.idle_load_kw,
        };
        let autonomy_time_lost_h = eq2.reduced_driving_time_h(self.cfg.idle_load_kw)
            * (energy_kwh / self.cfg.capacity_kwh);
        // TCO pro-rated over the simulated share of a 10 h operating day.
        let sim_days =
            (self.tick as f64 * self.cfg.tick_s) / (3600.0 * FleetConfig::OPERATING_HOURS_PER_DAY);
        let fleet_cost_usd = f64::from(self.cfg.vehicles) * self.cfg.tco.annual_cost_usd()
            / self.cfg.tco.operating_days_per_year
            * sim_days;
        let mut checksum = self.checksum;
        checksum = mix(checksum, self.gen.generated());
        checksum = mix(checksum, self.rides_completed);
        checksum = mix(checksum, distance_m.to_bits());
        checksum = mix(checksum, energy_kwh.to_bits());
        checksum = mix(checksum, control_effort.to_bits());
        FleetReport {
            vehicles: self.cfg.vehicles,
            ticks: self.tick,
            tick_s: self.cfg.tick_s,
            requests: self.gen.generated(),
            rides_completed: self.rides_completed,
            rides_in_progress: in_progress,
            rides_unserved: self.queue.len() as u64,
            wait_s: self.wait_s.clone(),
            travel_s: self.travel_s.clone(),
            distance_km: distance_m / 1000.0,
            energy_kwh,
            control_effort,
            utilization: frac(driving_ticks),
            charging_fraction: frac(charging_ticks),
            stalled_ticks,
            peak_queue: self.peak_queue,
            energy_per_ride_kwh: per_ride(energy_kwh),
            cost_per_ride_usd: per_ride(fleet_cost_usd),
            autonomy_time_lost_h,
            checksum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            ticks: 400,
            grid_rows: 4,
            grid_cols: 4,
            block_m: 60.0,
            ..FleetConfig::perceptin_fleet(24)
        }
    }

    #[test]
    fn completes_rides_and_accounts_for_every_request() {
        let mut sim = FleetSim::new(small_cfg());
        let rep = sim.run(None);
        assert!(rep.rides_completed > 0, "no rides completed");
        assert_eq!(
            rep.requests,
            rep.rides_completed + rep.rides_in_progress + rep.rides_unserved,
            "every request is completed, in progress, or queued"
        );
        assert_eq!(rep.wait_s.len() as u64, rep.rides_completed);
        assert_eq!(rep.travel_s.len() as u64, rep.rides_completed);
        assert!(rep.distance_km > 0.0);
        assert!(rep.energy_kwh > 0.0);
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
        assert!(rep.energy_per_ride_kwh > 0.0);
        assert!(rep.cost_per_ride_usd > 0.0);
        assert!(rep.autonomy_time_lost_h > 0.0);
    }

    #[test]
    fn sharded_run_is_byte_identical_to_serial() {
        let serial = FleetSim::new(small_cfg()).run(None);
        for lanes in [2, 4] {
            let pool = WorkerPool::new(lanes);
            let pooled = FleetSim::new(small_cfg()).run(Some(&pool));
            assert_eq!(serial, pooled, "worker pool with {lanes} lanes");
        }
    }

    #[test]
    fn indexed_and_linear_dispatch_are_byte_identical() {
        let indexed = FleetSim::new(small_cfg()).run(None);
        let linear = FleetSim::new(FleetConfig {
            dispatch: DispatchMode::Linear,
            ..small_cfg()
        })
        .run(None);
        assert_eq!(indexed, linear, "dispatch modes must agree bit for bit");
    }

    #[test]
    fn indexed_dispatch_evaluates_fewer_distances() {
        // A fleet big enough for ring pruning to bite.
        let cfg = FleetConfig {
            ticks: 300,
            grid_rows: 8,
            grid_cols: 8,
            ..FleetConfig::perceptin_fleet(200)
        };
        let mut indexed = FleetSim::new(cfg.clone());
        let mut linear = FleetSim::new(FleetConfig {
            dispatch: DispatchMode::Linear,
            ..cfg
        });
        let a = indexed.run(None);
        let b = linear.run(None);
        assert_eq!(a, b, "modes diverged");
        let (ie, le) = (
            indexed.dispatch_stats().distance_evals,
            linear.dispatch_stats().distance_evals,
        );
        assert!(ie > 0 && le > 0, "dispatch never evaluated a distance");
        assert!(
            ie * 2 <= le,
            "index must cut distance evaluations ≥ 2× (indexed {ie} vs linear {le})"
        );
        assert_eq!(
            indexed.dispatch_stats().dispatched,
            linear.dispatch_stats().dispatched
        );
    }

    #[test]
    fn dispatch_stats_are_worker_invariant() {
        let pool = WorkerPool::new(4);
        // Resident fields, and leg searches in per-chunk scratch (a budget
        // one byte short of every field), across dispatch chunkings.
        let lanes = FleetSim::new(small_cfg()).table().len();
        for (route_cache_bytes, dispatch_chunk) in [(usize::MAX, 16), (8 * lanes * lanes - 1, 3)] {
            let cfg = FleetConfig {
                route_cache_bytes,
                dispatch_chunk,
                ..small_cfg()
            };
            let stats = |pool: Option<&WorkerPool>| {
                let mut sim = FleetSim::new(cfg.clone());
                let _ = sim.run(pool);
                sim.dispatch_stats()
            };
            let serial = stats(None);
            assert!(serial.settled_lanes > 0 && serial.route_cache_misses > 0);
            assert_eq!(
                serial,
                stats(Some(&pool)),
                "work counters must not see the pool"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_checksums() {
        let a = FleetSim::new(small_cfg()).run(None);
        let b = FleetSim::new(FleetConfig {
            seed: 10,
            ..small_cfg()
        })
        .run(None);
        assert_ne!(a.checksum, b.checksum);
    }

    #[test]
    fn fault_window_stalls_a_subset() {
        let cfg = FleetConfig {
            fault: Some(FleetFaultPlan {
                seed: 4,
                from_tick: 100,
                until_tick: 200,
                fraction: 0.5,
            }),
            ..small_cfg()
        };
        let faulted = FleetSim::new(cfg).run(None);
        let clean = FleetSim::new(small_cfg()).run(None);
        assert!(faulted.stalled_ticks > 0, "nobody stalled");
        // Roughly half the fleet for 100 ticks.
        let expect: i64 = 24 * 100 / 2;
        assert!(
            (faulted.stalled_ticks as i64 - expect).abs() < expect / 2,
            "stalled {} vs ≈{expect}",
            faulted.stalled_ticks
        );
        assert_ne!(faulted.checksum, clean.checksum);
        // Stalls also cost service: fewer rides completed.
        assert!(faulted.rides_completed <= clean.rides_completed);
    }

    #[test]
    fn fault_plan_draw_is_stable() {
        let plan = FleetFaultPlan {
            seed: 7,
            from_tick: 10,
            until_tick: 20,
            fraction: 0.3,
        };
        for v in 0..100 {
            let inside = plan.stalled(v, 15);
            // Same draw for every tick of the window; none outside.
            assert_eq!(inside, plan.stalled(v, 10));
            assert_eq!(inside, plan.stalled(v, 19));
            assert!(!plan.stalled(v, 9));
            assert!(!plan.stalled(v, 20));
        }
        let hit = (0..1000).filter(|&v| plan.stalled(v, 15)).count();
        assert!((hit as f64 / 1000.0 - 0.3).abs() < 0.1, "hit rate {hit}");
    }

    #[test]
    fn stall_timeout_requeues_and_eventually_serves_the_ride() {
        // Stall the whole fleet shortly after dispatch begins, with a
        // timeout short enough to trigger inside the window. Every
        // assigned-but-not-picked-up ride must return to the queue, and
        // once the window clears the fleet must finish serving.
        let cfg = FleetConfig {
            ticks: 600,
            stall_requeue_ticks: Some(10),
            fault: Some(FleetFaultPlan {
                seed: 3,
                from_tick: 30,
                until_tick: 120,
                fraction: 1.0,
            }),
            ..small_cfg()
        };
        let mut sim = FleetSim::new(cfg.clone());
        let rep = sim.run(None);
        let stats = sim.dispatch_stats();
        assert!(stats.requeues > 0, "stall window never requeued a ride");
        // A requeued ride is dispatched again: assignments exceed unique
        // requests served.
        assert!(stats.dispatched > rep.rides_completed + rep.rides_in_progress);
        assert!(rep.rides_completed > 0, "fleet never recovered");
        assert_eq!(
            rep.requests,
            rep.rides_completed + rep.rides_in_progress + rep.rides_unserved,
            "requeue must not lose or duplicate requests"
        );
        // The coupling changes outcomes — and stays byte-identical
        // across worker counts (the proptests sweep this harder).
        let pool = WorkerPool::new(4);
        let pooled = FleetSim::new(cfg).run(Some(&pool));
        assert_eq!(rep, pooled);
        let no_requeue = FleetSim::new(FleetConfig {
            stall_requeue_ticks: None,
            ticks: 600,
            fault: Some(FleetFaultPlan {
                seed: 3,
                from_tick: 30,
                until_tick: 120,
                fraction: 1.0,
            }),
            ..small_cfg()
        })
        .run(None);
        assert_ne!(rep.checksum, no_requeue.checksum);
    }

    #[test]
    fn small_battery_forces_charging_cycle() {
        // A pack tiny enough to cross the reserve threshold within the
        // run: vehicles must visit Charging and the report must say so.
        // (The committed full-scale cells show charging_fraction 0.0000
        // because a 6 kWh pack outlasts a 6 000 s day — the trigger
        // itself is live, which is what this pins down.)
        let mut sim = FleetSim::new(FleetConfig {
            capacity_kwh: 0.05,
            ticks: 1200,
            ..small_cfg()
        });
        let rep = sim.run(None);
        assert!(
            rep.charging_fraction > 0.0,
            "reserve-SoC trigger never fired (charging_fraction = 0)"
        );
        assert!(rep.rides_completed > 0, "tiny pack must still serve rides");
        assert!(
            sim.vehicles()
                .iter()
                .any(|v| v.charging_ticks > 0 && v.battery.soc() > 0.0),
            "some vehicle must have actually charged"
        );
    }

    #[test]
    fn dispatch_prefers_nearest_available() {
        // Freeze movement (vanishing speed limit) so positions at and
        // after dispatch coincide, then check no still-idle vehicle was
        // strictly closer to any winner's pickup. (Ties go to the lower
        // id by the dispatcher's strict `<` over ascending ids.)
        let mut sim = FleetSim::new(FleetConfig {
            lane_speed_mps: 1e-9,
            ..small_cfg()
        });
        let mut saw_assignment = false;
        for _ in 0..20 {
            sim.tick_once(None);
        }
        for v in sim.vehicles() {
            let Some(a) = v.assignment() else { continue };
            saw_assignment = true;
            let d_win = sim.table().travel_distance(v.pos, a.origin);
            for other in sim.vehicles() {
                if other.id == v.id || !other.is_available() {
                    continue;
                }
                let d_other = sim.table().travel_distance(other.pos, a.origin);
                assert!(
                    d_other >= d_win - 1e-6,
                    "vehicle {} beat by idle {} ({d_other} < {d_win})",
                    v.id,
                    other.id
                );
            }
        }
        assert!(saw_assignment, "demand never produced an assignment");
    }

    #[test]
    fn route_cache_budget_is_invisible_in_reports() {
        let lanes = FleetSim::new(small_cfg()).table().len();
        let all_fields = 8 * lanes * lanes;
        let run = |route_cache_bytes: usize, dispatch: DispatchMode| {
            let mut sim = FleetSim::new(FleetConfig {
                route_cache_bytes,
                dispatch,
                ..small_cfg()
            });
            let report = sim.run(None);
            let cache = sim.route_cache();
            (cache.is_resident(), cache.len(), report)
        };
        let (resident, _, reference) = run(usize::MAX, DispatchMode::Linear);
        assert!(resident);
        for dispatch in [DispatchMode::Linear, DispatchMode::Indexed] {
            for (budget, want) in [
                (0, false),
                (all_fields - 1, false),
                (all_fields, true),
                (usize::MAX, true),
            ] {
                let (resident, len, report) = run(budget, dispatch);
                assert_eq!(resident, want, "budget {budget} B");
                if !resident {
                    assert_eq!(len, 0, "a budget short of every field keeps none");
                }
                assert_eq!(
                    report, reference,
                    "budget {budget} B, {dispatch:?} changed the report"
                );
            }
        }
    }

    #[test]
    fn default_budget_keeps_the_city_grid_resident() {
        // The 12×12 grid's 528 fields (2.2 MB) fit the default budget:
        // once every lane has been routed to, dispatch never misses.
        let mut sim = FleetSim::new(FleetConfig::perceptin_fleet(4000));
        let lanes = sim.table().len();
        assert_eq!(lanes, 528);
        assert!(sim.route_cache().is_resident());
        for _ in 0..400 {
            sim.tick_once(None);
        }
        assert_eq!(sim.route_cache().len(), lanes, "warm-up left a lane cold");
        let misses = sim.dispatch_stats().route_cache_misses;
        for _ in 0..200 {
            sim.tick_once(None);
        }
        let stats = sim.dispatch_stats();
        assert_eq!(stats.route_cache_misses, misses, "resident cache missed");
        assert!(stats.route_cache_hits > 0);
    }

    #[test]
    fn sprawl_grid_keeps_no_field_resident() {
        // 40×40 grid: every field together would take 311 MB, far past
        // the default 12 MiB, so no field is ever kept — every route is a
        // leg search, and each settles a fraction of the 6 240 lanes.
        let mut sim = FleetSim::new(FleetConfig {
            grid_rows: 40,
            grid_cols: 40,
            ..FleetConfig::perceptin_fleet(1000)
        });
        assert_eq!(sim.table().len(), 6240);
        assert!(!sim.route_cache().is_resident());
        for _ in 0..600 {
            sim.tick_once(None);
        }
        assert_eq!(sim.route_cache().len(), 0, "a field became resident");
        let stats = sim.dispatch_stats();
        assert!(stats.dispatched > 0);
        assert_eq!(stats.route_cache_hits, 0);
        assert!(
            stats.settled_lanes < stats.dispatched * 6240,
            "legs settled {} lanes for {} rides",
            stats.settled_lanes,
            stats.dispatched
        );
    }

    #[test]
    fn report_is_stable_across_calls() {
        let mut sim = FleetSim::new(small_cfg());
        for _ in 0..100 {
            sim.tick_once(None);
        }
        assert_eq!(sim.report(), sim.report());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn phases_must_run_in_order() {
        let mut sim = FleetSim::new(small_cfg());
        sim.phase_dispatch(None);
    }
}
