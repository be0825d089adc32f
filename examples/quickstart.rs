//! Quickstart: drive the deployed vehicle configuration through a
//! deployment scenario and print the end-to-end report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sov::core::config::VehicleConfig;
use sov::core::sov::Sov;
use sov::world::scenario::Scenario;

fn main() {
    println!("SoV quickstart — PerceptIn pod on the Fishers, Indiana loop\n");
    let scenario = Scenario::fishers_indiana(42);
    println!("site: {}", scenario.name);
    println!(
        "map: {} lanes, {:.0} m route, {} landmarks, {} scripted obstacles",
        scenario.world.map.len(),
        scenario.world.route.length_m(),
        scenario.world.landmarks.len(),
        scenario.world.obstacles.len()
    );

    let config = VehicleConfig::perceptin_pod();
    println!(
        "\nvehicle: {} ({} W autonomy load, {} Hz control)",
        config.name,
        config.power.total_pad_w(),
        config.control_rate_hz
    );
    let mut sov = Sov::new(config, 42);
    let report = sov.drive(&scenario, 600).expect("at least one frame");
    println!("\ndrive report:");
    println!("  outcome:              {:?}", report.outcome);
    println!(
        "  distance:             {:.0} m over {} frames",
        report.distance_m, report.frames
    );
    println!(
        "  computing latency:    best {:.0} ms / mean {:.0} ms / p99 {:.0} ms",
        report.computing.min(),
        report.computing.mean(),
        report.computing.p99()
    );
    println!(
        "  reactive overrides:   {} (proactive {:.1}% of the time)",
        report.override_engagements,
        report.proactive_fraction() * 100.0
    );
    println!("  closest obstacle gap: {:.1} m", report.min_obstacle_gap_m);
    println!("  energy used:          {:.4} kWh", report.energy_used_kwh);
    println!(
        "  localization error:   {:.2} m (GPS–VIO fused)",
        report.final_localization_error_m
    );

    println!(
        "\nfor the Fig. 5 task-level-parallelism demo (pipelined sensing →\n\
         perception → planning), run:\n  cargo run --release -p sov-bench --bin fig05_tlp"
    );
}
