//! Property tests for the fleet tick's three load-bearing claims.
//!
//! 1. **Byte-identity**: the fleet report is identical — every `f64`
//!    bit-equal, every `Summary` sample in the same order — whether the
//!    vehicle advance runs serially or sharded over a `WorkerPool` of any
//!    size, for any shard (chunk) size, with or without stall-fault
//!    injection on a subset of vehicles.
//! 2. **Dispatch equivalence**: the indexed + sharded dispatcher produces
//!    the same bytes as the retained serial linear-scan reference over
//!    full route fields across worker counts, dispatch shard sizes,
//!    spatial-index cell sizes, and route-cache budgets (resident fields,
//!    or none and a goal-directed leg search per query), with the
//!    stall-requeue coupling live — and its deterministic work counters
//!    are identical for every worker count.
//! 3. **Exact legs**: a goal-directed A\* leg returns the full field's
//!    travel distance to the bit and the full field's lane path, on grids
//!    from 2×2 to 40×40.
//! 4. **Exact demand**: the straight-line-gated [`RideGen`] produces the
//!    same requests and leaves the same RNG state as a reference that runs
//!    the exact route search on every destination draw, and falls back to
//!    that search on a map whose lanes do not touch.
//! 5. **Allocation-free steady state**: after warm-up, `phase_advance`
//!    makes zero calls to the global allocator (counted process-wide by
//!    `sov_testkit::alloc::CountingAlloc`) with the spatial index active,
//!    while rides walk lane paths from resident fields or leg searches.

use sov_fleet::graph::{FleetPos, RouteCache, RouteField, RouteScratch, RouteTable};
use sov_fleet::request::{RideGen, RideRequest};
use sov_fleet::sim::{DispatchMode, FleetConfig, FleetFaultPlan, FleetSim};
use sov_math::SovRng;
use sov_runtime::pool::WorkerPool;
use sov_testkit::alloc::{thread_allocations, CountingAlloc};
use sov_testkit::prelude::*;
use sov_world::map::{grid_network, Lane, LaneId, LaneMap};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A small-but-busy fleet the property cases perturb: every run completes
/// rides, exercises dispatch queues, and finishes in milliseconds.
fn base_cfg(seed: u64, vehicles: u32, chunk: usize) -> FleetConfig {
    FleetConfig {
        seed,
        ticks: 180,
        chunk,
        grid_rows: 4,
        grid_cols: 4,
        block_m: 60.0,
        // Over-drive demand so queues form and dispatch order matters.
        requests_per_tick: f64::from(vehicles) * 0.012,
        ..FleetConfig::perceptin_fleet(vehicles)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn report_is_byte_identical_across_workers_and_shards(
        seed in 0u64..u64::MAX,
        vehicles in 8u32..40,
        chunk in 1usize..48,
    ) {
        let cfg = base_cfg(seed, vehicles, chunk);
        let reference = FleetSim::new(cfg.clone()).run(None);
        prop_assert!(reference.rides_completed > 0, "workload too idle to test");
        for lanes in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let sharded = FleetSim::new(cfg.clone()).run(Some(&pool));
            prop_assert_eq!(&reference, &sharded, "lanes {}, chunk {}", lanes, chunk);
        }
    }

    #[test]
    fn report_is_byte_identical_under_fault_injection(
        seed in 0u64..u64::MAX,
        fault_seed in 0u64..u64::MAX,
        fraction in 0.1f64..0.9,
        chunk in 1usize..48,
    ) {
        let cfg = FleetConfig {
            fault: Some(FleetFaultPlan {
                seed: fault_seed,
                from_tick: 40,
                until_tick: 120,
                fraction,
            }),
            // Short enough to fire inside the window, so the requeue
            // coupling is exercised under sharding too.
            stall_requeue_ticks: Some(20),
            ..base_cfg(seed, 24, chunk)
        };
        let reference = FleetSim::new(cfg.clone()).run(None);
        prop_assert!(reference.stalled_ticks > 0, "fault window never stalled anyone");
        for lanes in [2usize, 4, 8] {
            let pool = WorkerPool::new(lanes);
            let sharded = FleetSim::new(cfg.clone()).run(Some(&pool));
            prop_assert_eq!(&reference, &sharded, "faulted run, lanes {}", lanes);
        }
    }

    #[test]
    fn checksum_is_sensitive_to_the_seed(seed in 0u64..u64::MAX - 1) {
        let a = FleetSim::new(base_cfg(seed, 16, 8)).run(None);
        let b = FleetSim::new(base_cfg(seed + 1, 16, 8)).run(None);
        prop_assert!(a.checksum != b.checksum, "adjacent seeds collided");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The tentpole gate: indexed + sharded dispatch is byte-identical to
    // the serial linear-scan reference across every configuration axis,
    // and its work counters cannot see the worker pool.
    #[test]
    fn dispatch_equivalence_across_modes_workers_and_caches(
        seed in 0u64..u64::MAX,
        vehicles in 8u32..48,
        chunk in 1usize..48,
        dispatch_chunk in 1usize..24,
        cache_axis in 0usize..4,
        index_cell_m in 30.0f64..150.0,
        fault_axis in 0u32..2,
    ) {
        // base_cfg's 4×4 grid has 48 lanes: one field is 384 B and every
        // field 48 times that. Below it no field is kept and dispatch runs
        // a leg search per query; the reference always reads full fields.
        let one_field = 8 * 48;
        let all_fields = 48 * one_field;
        let route_cache_bytes = [one_field, all_fields - 1, all_fields, usize::MAX][cache_axis];
        let fault = (fault_axis == 1).then_some(FleetFaultPlan {
            seed: seed ^ 0xFA17,
            from_tick: 40,
            until_tick: 120,
            fraction: 0.5,
        });
        let linear_cfg = FleetConfig {
            dispatch: DispatchMode::Linear,
            stall_requeue_ticks: Some(20),
            fault,
            route_cache_bytes: usize::MAX,
            ..base_cfg(seed, vehicles, chunk)
        };
        let reference = FleetSim::new(linear_cfg.clone()).run(None);
        prop_assert!(reference.rides_completed > 0, "workload too idle to test");
        let indexed_cfg = FleetConfig {
            dispatch: DispatchMode::Indexed,
            dispatch_chunk,
            index_cell_m,
            route_cache_bytes,
            ..linear_cfg
        };
        let mut serial_stats = None;
        for lanes in [0usize, 2, 8] {
            let pool = (lanes > 0).then(|| WorkerPool::new(lanes));
            let mut sim = FleetSim::new(indexed_cfg.clone());
            let report = sim.run(pool.as_ref());
            prop_assert_eq!(
                &reference, &report,
                "indexed != linear (lanes {}, dchunk {}, cache {} B, cell {})",
                lanes, dispatch_chunk, route_cache_bytes, index_cell_m
            );
            let stats = sim.dispatch_stats();
            match serial_stats {
                None => serial_stats = Some(stats),
                Some(first) => prop_assert_eq!(
                    first, stats,
                    "work counters diverged across worker counts (lanes {})",
                    lanes
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A leg search must be indistinguishable from the full field it
    // replaces: the same distance to the bit and the same lane path
    // (first-minimal tie-break included), on square and oblong grids,
    // for far pairs and for both same-lane cases.
    #[test]
    fn astar_matches_full_field(
        seed in 0u64..u64::MAX,
        rows in 2u32..41,
        cols in 2u32..41,
        block_axis in 0usize..5,
    ) {
        let block_m = [40.0, 50.0, 60.0, 75.0, 80.0][block_axis];
        let table = RouteTable::new(&grid_network(rows, cols, block_m, 2.5, 8.0));
        prop_assert_eq!(table.max_connection_gap_m(), 0.0);
        let mut rng = SovRng::seed_from_u64(seed);
        let mut sc = RouteScratch::new();
        let mut got = Vec::new();
        for q in 0..16 {
            let from = table.sample(rng.next_f64());
            let u = rng.next_f64();
            let to = match q % 4 {
                // Same lane, ahead: no search, empty path.
                0 => FleetPos { lane: from.lane, s: from.s + u * (table.lane_length(from.lane) - from.s) },
                // Same lane, behind: the route loops back to this lane.
                1 => FleetPos { lane: from.lane, s: u * from.s },
                _ => table.sample(u),
            };
            let field = table.field_to(to.lane);
            let d = table.route_path(from, to, &mut sc, &mut got);
            let w = table.travel_distance_with(from, to, &field);
            prop_assert_eq!(d.to_bits(), w.to_bits(), "{:?} -> {:?}: leg {} vs field {}", from, to, d, w);
            let want = field_walk(&table, from, to, &field);
            prop_assert_eq!(&got, &want, "{:?} -> {:?}", from, to);
            table.path_with(from, to, &field, &mut got);
            prop_assert_eq!(&got, &want, "field path {:?} -> {:?}", from, to);
        }
    }
}

/// The lanes a vehicle at `from` enters on its way to `to` when it steers
/// by `field` lane by lane: at each lane end, the first successor of
/// minimal field distance — the tie-break the fleet has always driven by.
fn field_walk(table: &RouteTable, from: FleetPos, to: FleetPos, field: &RouteField) -> Vec<u32> {
    let mut lanes = Vec::new();
    let mut lane = from.lane;
    if lane == to.lane && from.s <= to.s {
        return lanes;
    }
    while lanes.last() != Some(&to.lane) {
        let succ = table.successors(lane);
        let mut hop = succ[0];
        for &s in &succ[1..] {
            if field.to_start(s) < field.to_start(hop) {
                hop = s;
            }
        }
        lanes.push(hop);
        lane = hop;
    }
    lanes
}

/// Destination draws per request before a short trip is accepted anyway
/// (mirrors `RideGen`'s retry budget).
const MAX_DEST_DRAWS: u32 = 16;

/// The exact-search specification of `RideGen::generate`: every
/// destination draw runs the route search, and the generator's RNG is
/// consumed in the same order.
struct ExactGen {
    rng: SovRng,
    rate_per_tick: f64,
    min_trip_m: f64,
    next_id: u64,
    /// Accept/reject decisions taken, each one route search.
    decisions: u64,
    /// Decisions the straight line alone would have got wrong (straight
    /// line past the minimum, driving distance short of it).
    euclid_wrong: u64,
}

impl ExactGen {
    fn new(seed: u64, rate_per_tick: f64, min_trip_m: f64) -> Self {
        Self {
            rng: SovRng::seed_from_u64(seed),
            rate_per_tick,
            min_trip_m,
            next_id: 0,
            decisions: 0,
            euclid_wrong: 0,
        }
    }

    fn generate(&mut self, tick: u64, table: &RouteTable, out: &mut Vec<RideRequest>) {
        let l = (-self.rate_per_tick).exp();
        let mut arrivals = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.rng.next_f64();
            if p <= l {
                break;
            }
            arrivals += 1;
        }
        for _ in 0..arrivals {
            let origin = table.sample(self.rng.next_f64());
            let mut dest = table.sample(self.rng.next_f64());
            let mut direct = table.travel_distance(origin, dest);
            for _ in 1..MAX_DEST_DRAWS {
                self.decisions += 1;
                if euclid(table, origin, dest) > self.min_trip_m && direct < self.min_trip_m {
                    self.euclid_wrong += 1;
                }
                if direct >= self.min_trip_m {
                    break;
                }
                dest = table.sample(self.rng.next_f64());
                direct = table.travel_distance(origin, dest);
            }
            out.push(RideRequest {
                id: self.next_id,
                tick,
                origin,
                dest,
            });
            self.next_id += 1;
        }
    }
}

fn euclid(table: &RouteTable, a: FleetPos, b: FleetPos) -> f64 {
    let (a, b) = (table.pose(a), table.pose(b));
    (b.x - a.x).hypot(b.y - a.y)
}

/// Runs the gated generator (its route cache given `budget` bytes) and the
/// exact reference side by side; returns the reference and the gated
/// run's route-cache lookups.
fn compare_generators(
    table: &RouteTable,
    seed: u64,
    rate: f64,
    min_trip_m: f64,
    ticks: u64,
    budget: usize,
) -> (ExactGen, u64) {
    let mut gated = RideGen::new(seed, rate, min_trip_m);
    let mut exact = ExactGen::new(seed, rate, min_trip_m);
    let mut cache = RouteCache::new(table, budget);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for tick in 0..ticks {
        gated.generate(tick, table, &mut cache, &mut got);
        exact.generate(tick, table, &mut want);
        prop_assert_eq!(&got, &want, "requests diverged at tick {}", tick);
    }
    prop_assert_eq!(gated.rng(), &exact.rng, "RNG state diverged");
    prop_assert_eq!(gated.generated(), exact.next_id);
    (exact, cache.hits() + cache.misses())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gated_demand_matches_exact_search(
        seed in 0u64..u64::MAX,
        rows in 2u32..13,
        cols in 2u32..13,
        block_axis in 0usize..5,
        trip_axis in 0usize..6,
        free_trip_m in 0.0f64..400.0,
        resident in any::<bool>(),
    ) {
        let block_m = [40.0, 50.0, 60.0, 75.0, 80.0][block_axis];
        // Block multiples put exact ties (straight line == driving
        // distance == minimum) on the gate's boundary.
        let min_trip_m = [0.0, 60.0, 80.0, 150.0, 160.0, free_trip_m][trip_axis];
        let table = RouteTable::new(&grid_network(rows, cols, block_m, 2.5, 8.0));
        prop_assert_eq!(table.max_connection_gap_m(), 0.0);
        let budget = if resident { usize::MAX } else { 0 };
        let (exact, lookups) = compare_generators(&table, seed, 3.0, min_trip_m, 30, budget);
        prop_assert!(exact.next_id > 0, "no demand generated");
        prop_assert!(lookups <= exact.decisions);
        prop_assert_eq!(exact.euclid_wrong, 0, "straight line beat driving distance");
    }
}

/// Two 20 m lanes 280 m apart, each the other's only successor: driving
/// between them is short, the straight line long — the straight-line
/// gate would accept trips that are shorter than the minimum.
fn gapped_map() -> LaneMap {
    let mut map = LaneMap::new();
    for (i, x0) in [(0u32, 0.0), (1, 300.0)] {
        let lane =
            Lane::new(LaneId(i), vec![(x0, 0.0), (x0 + 20.0, 0.0)], 2.5, 8.0).expect("valid lane");
        map.insert(lane);
    }
    map.connect(LaneId(0), LaneId(1)).expect("lanes exist");
    map.connect(LaneId(1), LaneId(0)).expect("lanes exist");
    map
}

#[test]
fn gapped_map_falls_back_to_exact_search() {
    let table = RouteTable::new(&gapped_map());
    assert!(table.max_connection_gap_m() > 0.0);
    // Without resident fields the gapped map's searches run unbounded
    // (the full field, in scratch): still the exact trace.
    let _ = compare_generators(&table, 17, 2.0, 30.0, 200, 0);
    let (exact, lookups) = compare_generators(&table, 17, 2.0, 30.0, 200, usize::MAX);
    assert!(
        exact.euclid_wrong > 0,
        "map never separates straight line from driving distance"
    );
    assert_eq!(
        lookups, exact.decisions,
        "every decision must run the exact search"
    );
}

#[test]
fn steady_state_advance_is_allocation_free() {
    // Serial run on this thread so every allocation the advance makes is
    // counted here. base_cfg defaults to indexed dispatch, so the spatial
    // index (rebuild + ring search) runs between the measured phases; the
    // rides walk lane paths taken from resident fields, then from leg
    // searches (a budget with no room for fields).
    for route_cache_bytes in [usize::MAX, 0] {
        let mut sim = FleetSim::new(FleetConfig {
            route_cache_bytes,
            ..base_cfg(7, 32, 8)
        });
        assert_eq!(sim.config().dispatch, DispatchMode::Indexed);
        // Warm-up: enough ticks for vehicles to start driving (the control
        // kernel only runs on driving ticks) and for its arena to pool.
        for _ in 0..60 {
            sim.tick_once(None);
        }
        let driving0: u64 = sim.vehicles().iter().map(|v| v.driving_ticks).sum();
        assert!(driving0 > 0, "warm-up never drove");
        let mut allocs = 0;
        for _ in 0..120 {
            sim.phase_arrivals();
            sim.phase_dispatch(None);
            let before = thread_allocations();
            sim.phase_advance(None);
            allocs += thread_allocations() - before;
            sim.phase_merge();
        }
        let driving: u64 = sim.vehicles().iter().map(|v| v.driving_ticks).sum();
        assert!(
            driving > driving0,
            "steady state never drove — the assertion below would be vacuous"
        );
        assert_eq!(
            allocs, 0,
            "steady-state phase_advance called the allocator {allocs} times \
             (route budget {route_cache_bytes} B)"
        );
    }
}
