//! `drive_fuzz`: closed-loop `Sov::drive_with_plan` over generated
//! scenarios of every class, half of them under an injected fault.
//!
//! A step is one 300-frame drive on `PerfContext::serial()` and a unit of
//! work is one control frame.
//! The workload exercises the `sov-core` event loop, health/degradation,
//! the safety checker, MPC and the sensors, and touches neither the fleet
//! nor the pixel kernels; the faulted half drives the same loop through
//! drains, sheds and degraded modes.

use crate::{alloc, median, mix, ms_since, Episode, Workload};
use sov_core::config::VehicleConfig;
use sov_core::pool::PerfContext;
use sov_core::sov::{DriveReport, Sov};
use sov_fault::{FaultKind, FaultPlan};
use sov_sim::time::SimTime;
use sov_world::generate::{ScenarioClass, ScenarioGen};
use sov_world::scenario::Scenario;
use std::time::Instant;

pub const FUZZ: Workload = Workload {
    name: "drive_fuzz",
    tail_pct: 95.0,
    episode,
};

/// Scenarios per class in one episode's deck. Drive cost varies about
/// 2× between scenarios of one class, so the deck must be large for its
/// mean to hardly depend on the seed.
const PER_CLASS: u64 = 12;
const FRAMES: u64 = 300;
/// Fault window, as in `scenario_matrix`.
const FAULT_START_MS: u64 = 4_000;
const FAULT_END_MS: u64 = 14_000;

struct Drive {
    class: ScenarioClass,
    scenario: Scenario,
    plan: FaultPlan,
}

fn episode(seed: u64, traced: bool) -> Episode {
    let mut ep = Episode::default();
    let baseline = alloc::start_peak();
    let t_setup = Instant::now();

    let t = Instant::now();
    let mut drives: Vec<Drive> = Vec::new();
    let rotation = ScenarioGen::derive_seed(seed, 0x4641_554c) as usize;
    for class in ScenarioClass::ALL {
        for i in 0..PER_CLASS {
            let s = ScenarioGen::seed_for_class(class, seed, i);
            let k = drives.len();
            // Every other drive carries one fault, in a seeded rotation
            // over all kinds.
            let plan = if k.is_multiple_of(2) {
                FaultPlan::nominal()
            } else {
                let kind = FaultKind::ALL[(rotation + k / 2) % FaultKind::ALL.len()];
                FaultPlan::new(ScenarioGen::derive_seed(s, 1)).with(
                    kind,
                    SimTime::from_millis(FAULT_START_MS),
                    SimTime::from_millis(FAULT_END_MS),
                )
            };
            drives.push(Drive {
                class,
                scenario: ScenarioGen::generate(s).scenario,
                plan,
            });
        }
    }
    let generate_ms = ms_since(t);

    let t = Instant::now();
    let mut vehicles: Vec<Sov> = drives
        .iter()
        .map(|d| {
            let mut sov = Sov::new(VehicleConfig::perceptin_pod(), d.scenario.seed);
            sov.set_perf(PerfContext::serial());
            sov
        })
        .collect();
    let sov_new_ms = ms_since(t);

    // Warm-up: one full drive per class on spare vehicles, so the timed
    // drives do not pay for first-touch page faults and cold caches.
    for d in drives.iter().step_by(PER_CLASS as usize) {
        let mut spare = Sov::new(VehicleConfig::perceptin_pod(), d.scenario.seed);
        spare.set_perf(PerfContext::serial());
        let warm = spare
            .drive_with_plan(&d.scenario, FRAMES, &FaultPlan::nominal())
            .expect("frames > 0");
        std::hint::black_box(warm);
    }
    ep.setup_s = t_setup.elapsed().as_secs_f64();

    let mut step_ms = Vec::with_capacity(drives.len());
    let mut reports: Vec<DriveReport> = Vec::with_capacity(drives.len());
    let allocs0 = alloc::Snapshot::now();
    let mut drive_ms = 0.0;
    for (d, sov) in drives.iter().zip(&mut vehicles) {
        let parent = Instant::now();
        let t = Instant::now();
        let report = sov
            .drive_with_plan(&d.scenario, FRAMES, &d.plan)
            .expect("frames > 0");
        drive_ms += ms_since(t);
        step_ms.push(ms_since(parent));
        reports.push(report);
    }
    (ep.allocs, ep.alloc_bytes) = allocs0.since();
    ep.peak_bytes = alloc::peak_above(baseline);

    // Digests first: a percentile query sorts a `Summary` in place.
    ep.step_digests = reports.iter().map(digest).collect();
    let frames: u64 = reports.iter().map(|r| r.frames).sum();
    ep.work = frames as f64;
    let total = |f: fn(&DriveReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    ep.exact = vec![
        ("drive.deadline_misses".into(), total(|r| r.deadline_misses)),
        (
            "drive.mode_transitions".into(),
            total(|r| r.mode_transitions),
        ),
        ("drive.frames_shed".into(), total(|r| r.frames_shed)),
        (
            "drive.safety_violations".into(),
            total(|r| r.safety.violations),
        ),
        ("process.allocs".into(), ep.allocs as f64),
        ("process.peak_bytes".into(), ep.peak_bytes as f64),
    ];

    if traced {
        ep.layers.push(("drive.generate_ms".into(), generate_ms));
        ep.layers.push(("drive.sov_new_ms".into(), sov_new_ms));
        for class in ScenarioClass::ALL {
            let times: Vec<f64> = drives
                .iter()
                .zip(&step_ms)
                .filter(|(d, _)| d.class == class)
                .map(|(_, &ms)| ms)
                .collect();
            ep.layers
                .push((format!("drive.drive_ms.{}", class.name()), median(&times)));
        }
        ep.layers
            .push(("drive.frame_us".into(), drive_ms * 1e3 / frames as f64));
        for (i, stage) in ["sensing", "perception", "planning"].iter().enumerate() {
            let p50s: Vec<f64> = reports
                .iter()
                .map(|r| r.tail.stage_compute_ms[i].clone().median())
                .collect();
            ep.layers.push((format!("drive.{stage}_ms"), median(&p50s)));
        }
        ep.layers.extend(
            ep.exact
                .iter()
                .filter(|(n, _)| n.starts_with("drive."))
                .cloned(),
        );
        ep.children_ms = drive_ms;
    }
    ep.step_ms = step_ms;
    ep
}

fn fold_f64s(h: u64, vals: &[f64]) -> u64 {
    vals.iter()
        .fold(mix(h, vals.len() as u64), |h, v| mix(h, v.to_bits()))
}

/// Digest of every simulated field of a report (`tail` is wall-clock
/// telemetry and excluded, as in `DriveReport`'s `PartialEq`).
fn digest(r: &DriveReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = mix(h, r.outcome as u64);
    for v in [
        r.frames,
        r.distance_m.to_bits(),
        r.override_engagements,
        r.override_ticks,
        r.min_obstacle_gap_m.to_bits(),
        r.energy_used_kwh.to_bits(),
        r.final_localization_error_m.to_bits(),
        r.mean_cross_track_error_m.to_bits(),
        r.mode_transitions,
        r.deadline_misses,
        r.can_frames_lost,
        r.frames_shed,
        r.safety.checked_ticks,
        r.safety.violations,
    ] {
        h = mix(h, v);
    }
    for t in r.mode_ticks {
        h = mix(h, t);
    }
    h = fold_f64s(h, r.computing.samples());
    h = fold_f64s(h, r.recovery_ms.samples());
    if let Some(v) = &r.safety.first {
        h = mix(h, v.frame);
        h = v
            .invariant
            .name()
            .bytes()
            .fold(h, |h, b| mix(h, u64::from(b)));
        h = mix(h, v.gap_m.to_bits());
        h = mix(h, v.speed_mps.to_bits());
    }
    h
}
