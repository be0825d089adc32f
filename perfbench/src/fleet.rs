//! `fleet_city` and `fleet_sprawl`: the `sov-fleet` serving engine.
//!
//! A step is one `FleetSim` tick and a unit of work is one simulated
//! fleet-second. The two workloads use the routing layer in opposite
//! ways: the city's small grid keeps every route a cache hit away while
//! 4 000 vehicles make the advance phase heavy; the sprawl's 40×40 grid
//! makes Dijkstra misses dominate the tick and set its tail.

use crate::{alloc, mix, ms_since, Episode, Workload};
use sov_fleet::{FleetConfig, FleetSim, RouteTable};
use sov_runtime::pool::WorkerPool;
use sov_world::map::grid_network;
use std::time::Instant;

struct Spec {
    vehicles: u32,
    grid: u32,
    /// Worker-pool lanes (0 = serial; the caller is one lane).
    lanes: usize,
    /// Untimed ticks that bring the fleet and its route cache to steady
    /// state before timing starts.
    warmup_ticks: u64,
    timed_ticks: u64,
}

const CITY_SPEC: Spec = Spec {
    vehicles: 4000,
    grid: 12,
    lanes: 2,
    warmup_ticks: 400,
    timed_ticks: 1000,
};

const SPRAWL_SPEC: Spec = Spec {
    vehicles: 1000,
    grid: 40,
    lanes: 0,
    warmup_ticks: 300,
    timed_ticks: 600,
};

pub const CITY: Workload = Workload {
    name: "fleet_city",
    tail_pct: 99.0,
    episode: |seed, traced| episode(&CITY_SPEC, seed, traced),
};

pub const SPRAWL: Workload = Workload {
    name: "fleet_sprawl",
    tail_pct: 99.0,
    episode: |seed, traced| episode(&SPRAWL_SPEC, seed, traced),
};

/// Destination lanes sampled by the `fleet.dijkstra_ms` probe.
const DIJKSTRA_SAMPLE: u32 = 16;

fn config(spec: &Spec, seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        grid_rows: spec.grid,
        grid_cols: spec.grid,
        ..FleetConfig::perceptin_fleet(spec.vehicles)
    }
}

fn episode(spec: &Spec, seed: u64, traced: bool) -> Episode {
    let cfg = config(spec, seed);
    let mut ep = Episode::default();
    let mut step_ms = Vec::with_capacity(spec.timed_ticks as usize);
    let mut phase_ms = [0.0f64; 4];
    let baseline = alloc::start_peak();
    let t_setup = Instant::now();

    if traced {
        // Set-up children, timed as separate calls of the same public
        // functions `FleetSim::new` runs.
        let t = Instant::now();
        let map = grid_network(
            cfg.grid_rows,
            cfg.grid_cols,
            cfg.block_m,
            2.5,
            cfg.lane_speed_mps,
        );
        ep.layers.push(("fleet.setup.map_ms".into(), ms_since(t)));
        let t = Instant::now();
        let table = RouteTable::new(&map);
        ep.layers
            .push(("fleet.setup.route_table_ms".into(), ms_since(t)));
        drop(table);
    }
    let pool = (spec.lanes > 0).then(|| WorkerPool::new(spec.lanes));
    let pool = pool.as_ref();
    let mut sim = FleetSim::new(cfg);
    let t_warm = Instant::now();
    for _ in 0..spec.warmup_ticks {
        sim.tick_once(pool);
    }
    let warmup_ms = ms_since(t_warm);
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    let stats0 = sim.dispatch_stats();
    let allocs0 = alloc::Snapshot::now();
    for _ in 0..spec.timed_ticks {
        if traced {
            let parent = Instant::now();
            let t0 = Instant::now();
            sim.phase_arrivals();
            let t1 = Instant::now();
            sim.phase_dispatch(pool);
            let t2 = Instant::now();
            sim.phase_advance(pool);
            let t3 = Instant::now();
            sim.phase_merge();
            let t4 = Instant::now();
            let spans = [t1 - t0, t2 - t1, t3 - t2, t4 - t3];
            for (acc, d) in phase_ms.iter_mut().zip(spans) {
                *acc += d.as_secs_f64() * 1e3;
            }
            step_ms.push(ms_since(parent));
        } else {
            let t = Instant::now();
            sim.tick_once(pool);
            step_ms.push(ms_since(t));
        }
    }
    (ep.allocs, ep.alloc_bytes) = allocs0.since();
    ep.peak_bytes = alloc::peak_above(baseline);

    let stats = sim.dispatch_stats();
    let report = sim.report();
    ep.work = spec.timed_ticks as f64 * report.tick_s;
    ep.step_digests = vec![mix(report.checksum, sim.ticks_run()); spec.timed_ticks as usize];
    let delta = |now: u64, then: u64| (now - then) as f64;
    let hits = delta(stats.route_cache_hits, stats0.route_cache_hits);
    let misses = delta(stats.route_cache_misses, stats0.route_cache_misses);
    ep.exact = vec![
        (
            "fleet.distance_evals".into(),
            delta(stats.distance_evals, stats0.distance_evals),
        ),
        (
            "fleet.dispatched".into(),
            delta(stats.dispatched, stats0.dispatched),
        ),
        (
            "fleet.fallback_searches".into(),
            delta(stats.fallback_searches, stats0.fallback_searches),
        ),
        (
            "fleet.requeues".into(),
            delta(stats.requeues, stats0.requeues),
        ),
        ("fleet.route_misses".into(), misses),
        ("fleet.route_hits".into(), hits),
    ];
    if spec.lanes == 0 {
        ep.exact.push(("process.allocs".into(), ep.allocs as f64));
    }

    if traced {
        let ticks = spec.timed_ticks as f64;
        let names = ["arrivals", "dispatch", "advance", "merge"];
        for (name, total) in names.iter().zip(phase_ms) {
            ep.layers.push((format!("fleet.{name}_ms"), total / ticks));
        }
        ep.layers.push((
            "fleet.advance_ns_per_vehicle".into(),
            phase_ms[2] / ticks * 1e6 / f64::from(spec.vehicles),
        ));
        ep.layers.push(("fleet.setup.warmup_ms".into(), warmup_ms));
        ep.layers
            .push(("fleet.route_hit_ratio".into(), hits / (hits + misses)));
        ep.layers.extend(
            ep.exact
                .iter()
                .filter(|(n, _)| n.starts_with("fleet."))
                .cloned(),
        );
        ep.layers
            .push(("fleet.dijkstra_ms".into(), dijkstra_ms(sim.table())));
        ep.children_ms = phase_ms.iter().sum();
    }
    ep.step_ms = step_ms;
    ep
}

/// Mean time of one `RouteTable::field_to` over destinations spread
/// evenly across the map's lanes.
fn dijkstra_ms(table: &RouteTable) -> f64 {
    let lanes = table.len() as u32;
    let t = Instant::now();
    let mut settled = 0.0;
    for k in 0..DIJKSTRA_SAMPLE {
        let field = table.field_to(k * lanes / DIJKSTRA_SAMPLE);
        settled += std::hint::black_box(field.to_start(0));
    }
    std::hint::black_box(settled);
    ms_since(t) / f64::from(DIJKSTRA_SAMPLE)
}
