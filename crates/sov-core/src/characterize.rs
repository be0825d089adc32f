//! The performance-characterization harness of Sec. V-C.
//!
//! Runs the latency pipeline over many frames against a scenario's
//! complexity profile and aggregates the distributions the paper reports:
//! Fig. 10a's best/mean/99th-percentile stacked decomposition and Fig. 10b's
//! per-task averages, plus the derived safety quantities (minimum avoidable
//! obstacle distance at mean and worst-case latency).

use crate::config::VehicleConfig;
use crate::pipeline::LatencyPipeline;
use sov_math::stats::Summary;
use sov_sim::time::SimTime;
use sov_sim::trace::{Stage, TraceLog};
use sov_world::scenario::ComplexityProfile;

/// Aggregated latency characterization.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Sensing-stage latencies (ms).
    pub sensing: Summary,
    /// Perception-stage latencies (ms).
    pub perception: Summary,
    /// Planning-stage latencies (ms).
    pub planning: Summary,
    /// Computing latencies `T_comp` (ms).
    pub computing: Summary,
    /// Depth-estimation task latencies (ms).
    pub depth: Summary,
    /// Detection task latencies (ms).
    pub detection: Summary,
    /// Tracking task latencies (ms).
    pub tracking: Summary,
    /// Localization task latencies (ms).
    pub localization: Summary,
    /// Span-level trace of every frame (sensing → perception → planning),
    /// suitable for timeline tooling.
    pub trace: TraceLog,
    /// Frames simulated.
    pub frames: u64,
}

impl Characterization {
    /// Runs `frames` frames of the latency pipeline for `config`, sweeping
    /// the route so complexity follows `profile`.
    #[must_use]
    pub fn run(
        config: &VehicleConfig,
        profile: &ComplexityProfile,
        frames: u64,
        seed: u64,
    ) -> Self {
        let mut pipe = LatencyPipeline::new(config, seed);
        let mut out = Self {
            sensing: Summary::new(),
            perception: Summary::new(),
            planning: Summary::new(),
            computing: Summary::new(),
            depth: Summary::new(),
            detection: Summary::new(),
            tracking: Summary::new(),
            localization: Summary::new(),
            trace: TraceLog::new(),
            frames,
        };
        let mut clock = SimTime::ZERO;
        for k in 0..frames {
            // Sweep the route repeatedly; complexity follows position.
            let frac = (k % 1000) as f64 / 1000.0;
            let f = pipe.next_frame(profile.at(frac));
            // Record the frame as serial spans on a shared timeline.
            let s_end = clock + f.sensing;
            let p_end = s_end + f.perception();
            let pl_end = p_end + f.planning;
            out.trace.record(k, Stage::Sensing, clock, s_end);
            out.trace.record(k, Stage::Perception, s_end, p_end);
            out.trace.record(k, Stage::Planning, p_end, pl_end);
            clock = pl_end;
            out.sensing.record(f.sensing.as_millis_f64());
            out.perception.record(f.perception().as_millis_f64());
            out.planning.record(f.planning.as_millis_f64());
            out.computing.record(f.computing().as_millis_f64());
            out.depth.record(f.depth.as_millis_f64());
            out.detection.record(f.detection.as_millis_f64());
            out.tracking.record(f.tracking.as_millis_f64());
            out.localization.record(f.localization.as_millis_f64());
        }
        out
    }

    /// Fig. 10a row: `(best, mean, p99)` of the computing latency (ms).
    #[must_use]
    pub fn computing_row(&self) -> (f64, f64, f64) {
        (
            self.computing.min(),
            self.computing.mean(),
            self.computing.p99(),
        )
    }

    /// Minimum avoidable obstacle distance (m) at the mean computing
    /// latency (Sec. III-A's "5 m" headline at 164 ms).
    pub fn avoidable_distance_mean_m(&self, config: &VehicleConfig) -> f64 {
        config
            .latency_budget()
            .min_avoidable_distance_m(self.computing.mean() / 1000.0)
    }

    /// Minimum avoidable obstacle distance (m) at the worst observed
    /// latency.
    pub fn avoidable_distance_worst_m(&self, config: &VehicleConfig) -> f64 {
        config
            .latency_budget()
            .min_avoidable_distance_m(self.computing.max() / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn characterize(frames: u64) -> (VehicleConfig, Characterization) {
        let config = VehicleConfig::perceptin_pod();
        let profile = ComplexityProfile::new(vec![(0.0, 0.3), (0.5, 0.6), (1.0, 0.3)]);
        let c = Characterization::run(&config, &profile, frames, 42);
        (config, c)
    }

    #[test]
    fn fig10a_shape_holds() {
        let (_, c) = characterize(6000);
        let (best, mean, p99) = c.computing_row();
        assert!(best < mean && mean < p99, "{best} < {mean} < {p99}");
        // Sec. V-C: "the mean latency (164 ms) is close to the best-case
        // latency (149 ms), but a long tail exists".
        assert!(mean - best < 80.0, "mean {mean} close to best {best}");
        assert!(p99 - mean > 40.0, "long tail: p99 {p99} vs mean {mean}");
        assert!((140.0..195.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn fig10b_detection_dominates_perception_tasks() {
        let (_, c) = characterize(3000);
        let det = c.detection.mean();
        assert!(det > c.depth.mean());
        assert!(det > c.tracking.mean());
        assert!(det > c.localization.mean());
    }

    #[test]
    fn localization_statistics_match_sec5c() {
        // Sec. V-C: localization median ≈ 25 ms, σ ≈ 14 ms.
        let (_, c) = characterize(6000);
        let median = c.localization.median();
        let std = c.localization.std_dev();
        assert!((15.0..40.0).contains(&median), "median {median}");
        assert!(std > 7.0, "variation from scene complexity: σ = {std}");
    }

    #[test]
    fn avoidance_distances() {
        let (config, c) = characterize(6000);
        let mean_d = c.avoidable_distance_mean_m(&config);
        let worst_d = c.avoidable_distance_worst_m(&config);
        // ≈5 m at the mean latency; worst-case needs several meters more.
        assert!((4.3..6.0).contains(&mean_d), "mean avoidance {mean_d} m");
        assert!(worst_d > mean_d + 0.5, "worst {worst_d} vs mean {mean_d}");
    }

    #[test]
    fn trace_spans_reconcile_with_summaries() {
        let (_, c) = characterize(500);
        let frames = c.trace.frames();
        assert_eq!(frames.len(), 500);
        // The trace's per-frame wall extents must reproduce the recorded
        // computing latencies exactly.
        let trace_mean = frames
            .values()
            .map(|fb| fb.total().as_millis_f64())
            .sum::<f64>()
            / frames.len() as f64;
        assert!((trace_mean - c.computing.mean()).abs() < 1e-9);
        // And per-stage sums match too.
        use sov_sim::trace::Stage;
        let sensing_mean = frames
            .values()
            .map(|fb| fb.stage(Stage::Sensing).as_millis_f64())
            .sum::<f64>()
            / frames.len() as f64;
        assert!((sensing_mean - c.sensing.mean()).abs() < 1e-9);
    }

    #[test]
    fn throughput_requirement_is_met_by_pipelining() {
        // The slowest stage bounds throughput; perception must fit in the
        // 10 Hz budget on average for the pipeline to sustain 10 Hz.
        let (config, c) = characterize(3000);
        assert!(
            c.perception.mean() < 1000.0 / config.control_rate_hz,
            "perception mean {} ms exceeds the control period",
            c.perception.mean()
        );
    }
}
