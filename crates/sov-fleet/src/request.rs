//! Seeded Poisson ride demand over the lane graph.
//!
//! Ride requests arrive as a Poisson process (`λ` requests per tick) with
//! origins and destinations drawn uniformly by arclength from the network
//! via [`RouteTable::sample`]. Everything is driven by one [`SovRng`]
//! stream consumed in a fixed order on the serial phase of the fleet tick,
//! so a seed fully determines the demand trace independent of worker
//! count.
//!
//! Arrivals compute no route that the rest of the tick reads. A
//! destination draw only has to decide "driving distance ≥
//! `min_trip_m`", and on a contiguous map the straight line between the
//! two poses already decides it for every pair that is not near: only
//! near pairs (and every pair on a map with connection gaps) ask the
//! fleet's route oracle ([`RouteCache::to`]) — a resident field on a small
//! map, one goal-directed leg search on a large one.

use crate::graph::{FleetPos, RouteCache, RouteTable};
use sov_math::SovRng;

/// One ride request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RideRequest {
    /// Unique, densely increasing request id.
    pub id: u64,
    /// Tick the request arrived on.
    pub tick: u64,
    /// Pickup position.
    pub origin: FleetPos,
    /// Drop-off position.
    pub dest: FleetPos,
}

/// Seeded Poisson request generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RideGen {
    rng: SovRng,
    rate_per_tick: f64,
    min_trip_m: f64,
    next_id: u64,
}

/// Destination re-draws before a short trip is accepted anyway: keeps the
/// RNG consumption bounded per request regardless of map geometry.
const MAX_DEST_DRAWS: u32 = 16;

/// Relative slack of the straight-line gate. Driving distance is a sum of
/// polyline segment lengths and the straight line one `hypot`, each off
/// by a few ulps; a pair is accepted without a search only when its
/// straight line clears `min_trip_m` by this factor, so rounding can
/// never flip a decision the exact search would make.
const GATE_REL_SLACK: f64 = 1e-9;

/// Absolute slack of the gate (meters): covers the coordinate rounding of
/// the two poses (≈ 1e-16 × map extent) when `min_trip_m` is tiny or 0.
const GATE_ABS_SLACK_M: f64 = 1e-9;

impl RideGen {
    /// Creates a generator producing on average `rate_per_tick` requests
    /// per tick, rejecting trips shorter than `min_trip_m` (re-drawing the
    /// destination up to a fixed retry budget).
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_tick` is not positive or `min_trip_m` is
    /// negative.
    #[must_use]
    pub fn new(seed: u64, rate_per_tick: f64, min_trip_m: f64) -> Self {
        assert!(rate_per_tick > 0.0, "request rate must be positive");
        assert!(min_trip_m >= 0.0, "minimum trip length cannot be negative");
        Self {
            rng: SovRng::seed_from_u64(seed),
            rate_per_tick,
            min_trip_m,
            next_id: 0,
        }
    }

    /// Total requests generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// The demand stream's RNG state: two generators with equal state
    /// (and equal rate and minimum trip) produce the same future trace.
    #[must_use]
    pub fn rng(&self) -> &SovRng {
        &self.rng
    }

    /// Appends this tick's arrivals to `out` (which is not cleared).
    ///
    /// The arrival count is Poisson-distributed via Knuth's product
    /// method; each request then draws an origin and up to
    /// [`MAX_DEST_DRAWS`] destinations from the network sampler, keeping
    /// the first whose driving distance is at least `min_trip_m`.
    ///
    /// On a contiguous map ([`RouteTable::max_connection_gap_m`]` == 0`)
    /// a route from one pose to another is a continuous curve of the
    /// route's length, so driving distance ≥ straight-line distance: a
    /// draw whose straight line exceeds `min_trip_m` (plus rounding
    /// slack) is accepted without any search. Only the remaining near
    /// draws — and every draw on a map with connection gaps — resolve
    /// the exact distance through `cache` (its resident field, or a leg
    /// search in its scratch; both exact). Every accept/reject decision,
    /// and so the RNG stream, is the one the exact search makes on every
    /// draw. Generation runs on the serial phase, so the cache's state
    /// stays a pure function of the demand trace.
    pub fn generate(
        &mut self,
        tick: u64,
        table: &RouteTable,
        cache: &mut RouteCache,
        out: &mut Vec<RideRequest>,
    ) {
        let gate = table.max_connection_gap_m() == 0.0;
        let min_trip = self.min_trip_m;
        let gate_m = min_trip * (1.0 + GATE_REL_SLACK) + GATE_ABS_SLACK_M;
        let mut long_enough = |origin: FleetPos, dest: FleetPos| {
            if gate {
                let (a, b) = (table.pose(origin), table.pose(dest));
                if (b.x - a.x).hypot(b.y - a.y) > gate_m {
                    return true;
                }
            }
            cache.to(table, dest.lane).distance(table, origin, dest) >= min_trip
        };
        let arrivals = self.poisson();
        for _ in 0..arrivals {
            let origin = table.sample(self.rng.next_f64());
            let mut dest = table.sample(self.rng.next_f64());
            for _ in 1..MAX_DEST_DRAWS {
                if long_enough(origin, dest) {
                    break;
                }
                dest = table.sample(self.rng.next_f64());
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

    /// Knuth's Poisson sampler: counts uniform draws until the running
    /// product falls below `e^{-λ}`. For the fleet's per-tick rates
    /// (λ ≤ ~30) the product stays far above `f64` underflow.
    fn poisson(&mut self) -> u64 {
        let l = (-self.rate_per_tick).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.rng.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sov_world::map::grid_network;

    fn table() -> RouteTable {
        RouteTable::new(&grid_network(3, 3, 50.0, 2.5, 8.0))
    }

    #[test]
    fn same_seed_same_trace() {
        let t = table();
        let mut a = RideGen::new(7, 2.5, 100.0);
        let mut b = RideGen::new(7, 2.5, 100.0);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        let mut cache_a = RouteCache::new(&t, usize::MAX);
        // Residency must not change the trace: resident fields and leg
        // searches give the same exact distances.
        let mut cache_b = RouteCache::new(&t, 0);
        for tick in 0..50 {
            a.generate(tick, &t, &mut cache_a, &mut out_a);
            b.generate(tick, &t, &mut cache_b, &mut out_b);
        }
        assert_eq!(out_a, out_b);
        assert_eq!(a.generated(), out_a.len() as u64);
    }

    #[test]
    fn poisson_mean_tracks_rate() {
        let t = table();
        let mut gen = RideGen::new(11, 3.0, 0.0);
        let mut cache = RouteCache::new(&t, usize::MAX);
        let mut out = Vec::new();
        for tick in 0..2000 {
            gen.generate(tick, &t, &mut cache, &mut out);
        }
        let mean = out.len() as f64 / 2000.0;
        assert!((mean - 3.0).abs() < 0.15, "Poisson mean {mean}");
    }

    #[test]
    fn request_ids_are_dense_and_increasing() {
        let t = table();
        let mut gen = RideGen::new(3, 4.0, 50.0);
        let mut cache = RouteCache::new(&t, 0);
        let mut out = Vec::new();
        for tick in 0..100 {
            gen.generate(tick, &t, &mut cache, &mut out);
        }
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn min_trip_is_mostly_respected() {
        let t = table();
        let mut gen = RideGen::new(5, 5.0, 120.0);
        let mut cache = RouteCache::new(&t, usize::MAX);
        let mut out = Vec::new();
        for tick in 0..200 {
            gen.generate(tick, &t, &mut cache, &mut out);
        }
        assert!(!out.is_empty());
        let short = out
            .iter()
            .filter(|r| t.travel_distance(r.origin, r.dest) < 120.0)
            .count();
        // The retry budget makes short trips rare, not impossible.
        assert!(
            short * 10 < out.len(),
            "{short} of {} trips under the minimum",
            out.len()
        );
    }

    #[test]
    fn far_draws_skip_the_route_search() {
        // A 3×3 grid of 50 m blocks spans 100 m: with no minimum every
        // draw but a coincident pair clears the straight-line gate, so
        // the cache is (almost) never consulted.
        let t = table();
        let mut gen = RideGen::new(5, 5.0, 0.0);
        let mut cache = RouteCache::new(&t, usize::MAX);
        let mut out = Vec::new();
        for tick in 0..200 {
            gen.generate(tick, &t, &mut cache, &mut out);
        }
        assert!(out.len() > 500);
        assert_eq!(cache.hits() + cache.misses(), 0, "far pairs ran a search");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = RideGen::new(0, 0.0, 10.0);
    }
}
