//! A full operating day of the fleet, end to end: seeded ride demand is
//! served by the sharded `sov-fleet` engine (Eq. 2 battery accounting per
//! vehicle), telemetry flows per the Sec. II-B policy, and at the end of
//! the day the raw data is uploaded, the site model retrained, and the
//! update regression-gated before redeployment (Fig. 1).
//!
//! ```sh
//! cargo run --release --example fleet_day
//! ```

use sov::cloud::simulation::{regression_run, ReleaseGates};
use sov::cloud::telemetry::{raw_data_volume_per_day_bytes, DataClass, TelemetryAgent};
use sov::cloud::training::{SiteId, TrainingService};
use sov::core::config::VehicleConfig;
use sov::fleet::sim::{FleetConfig, FleetSim};
use sov::runtime::pool::WorkerPool;
use sov::sim::time::SimTime;

const VEHICLES: u32 = 50;

fn main() {
    let config = VehicleConfig::perceptin_pod();

    // The whole 10 h operating day at 1 s ticks, with the pod's Eq. 2
    // numbers wired straight into the fleet energy model: 6 kWh pack,
    // 0.6 kW base + 0.175 kW autonomy while driving, autonomy-only while
    // idle. The tick loop itself lives in `FleetSim` — sharded over the
    // worker pool and byte-identical to a serial run.
    let day_ticks = (FleetConfig::OPERATING_HOURS_PER_DAY * 3600.0) as u64;
    let cfg = FleetConfig {
        ticks: day_ticks,
        capacity_kwh: config.battery.capacity_kwh,
        drive_load_kw: config.total_load_kw(),
        idle_load_kw: config.power.total_pad_kw(),
        // Over a full day the packs run dry (≈7.7 h of driving per
        // charge), so the day-long sustainable demand sits below the
        // one-hour calibration in `perceptin_fleet`.
        requests_per_tick: f64::from(VEHICLES) * 0.003,
        ..FleetConfig::perceptin_fleet(VEHICLES)
    };
    println!(
        "operating day: {VEHICLES} pods × {:.0} h on a {}×{} street grid\n",
        FleetConfig::OPERATING_HOURS_PER_DAY,
        cfg.grid_rows,
        cfg.grid_cols
    );
    let pool = WorkerPool::new(4);
    let report = FleetSim::new(cfg).run(Some(&pool));

    // Hourly condensed log + staged raw data, per the telemetry policy:
    // kilobytes go over cellular, the terabytes wait for the depot.
    let mut telemetry = TelemetryAgent::perceptin_defaults();
    for hour in 1..=FleetConfig::OPERATING_HOURS_PER_DAY as u64 {
        let t = SimTime::from_millis(hour * 3_600_000);
        let _ = telemetry.submit(DataClass::CondensedLog { bytes: 4 * 1024 }, t);
        let _ = telemetry.submit(
            DataClass::RawSensorData {
                bytes: raw_data_volume_per_day_bytes(4, 30.0, 240 * 1024, 1.0)
                    / FleetConfig::OPERATING_HOURS_PER_DAY as u64,
            },
            t,
        );
    }

    let wait = &report.wait_s;
    println!(
        "served {} of {} rides / {:.1} km driven, wait p50/p99 {:.0}/{:.0} s",
        report.rides_completed,
        report.requests,
        report.distance_km,
        wait.percentile(50.0),
        wait.p99(),
    );
    println!(
        "fleet drew {:.1} kWh ({:.3} kWh, ${:.2} per ride), utilization {:.0}%",
        report.energy_kwh,
        report.energy_per_ride_kwh,
        report.cost_per_ride_usd,
        100.0 * report.utilization,
    );
    println!(
        "Eq. 2: autonomy load cost {:.1} h of fleet driving time today \
         ({:.1} h per full {:.0} kWh pack at {:.0} W)",
        report.autonomy_time_lost_h,
        config
            .battery
            .reduced_driving_time_h(config.power.total_pad_kw()),
        config.battery.capacity_kwh,
        config.power.total_pad_w(),
    );

    // End of day: manual upload + retraining + release gate.
    let staged = telemetry.manual_upload();
    println!(
        "\nend of day: {:.2} TB uploaded manually, {} KB went over cellular",
        staged as f64 / 1024f64.powi(4),
        telemetry.uplinked_bytes() / 1024
    );
    let mut training = TrainingService::new();
    training.ingest(SiteId(1), report.rides_completed * 1_800); // labeled frames per ride
    let model = training.train(SiteId(1));
    println!(
        "retrained site model v{} on {} frames → miss rate {:.3}",
        model.version, model.training_frames, model.profile.miss_rate
    );
    let gate = regression_run(&config, &ReleaseGates::default(), 200, 3);
    println!(
        "release gate across {} sites: {}",
        gate.sites.len(),
        if gate.release_approved() {
            "APPROVED — deploying tonight"
        } else {
            "BLOCKED"
        }
    );
}
