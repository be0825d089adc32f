//! Property-based tests for the math substrate.

use sov_math::angle;
use sov_math::kalman::Ekf;
use sov_math::matrix::{Matrix, Vector};
use sov_math::quaternion::Quaternion;
use sov_math::stats::Summary;
use sov_math::{Pose2, SovRng};
use sov_testkit::prelude::*;

fn finite(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |x| {
        let span = range.end - range.start;
        range.start + (x.abs() % span)
    })
}

proptest! {
    #[test]
    fn solve_then_multiply_recovers_rhs(
        seed in 0u64..10_000,
    ) {
        let mut rng = SovRng::seed_from_u64(seed);
        // Diagonally-dominant matrices are well conditioned.
        let mut a = Matrix::<4, 4>::from_fn(|_, _| rng.uniform(-1.0, 1.0));
        for i in 0..4 {
            a[(i, i)] += 5.0;
        }
        let b = Vector::<4>::from_fn(|i, _| rng.uniform(-10.0, 10.0) + i as f64);
        let x = a.solve(&b).expect("diagonally dominant is invertible");
        prop_assert!((a * x).approx_eq(&b, 1e-8));
    }

    #[test]
    fn inverse_is_two_sided(seed in 0u64..10_000) {
        let mut rng = SovRng::seed_from_u64(seed);
        let mut a = Matrix::<3, 3>::from_fn(|_, _| rng.uniform(-1.0, 1.0));
        for i in 0..3 {
            a[(i, i)] += 4.0;
        }
        let inv = a.inverse().expect("invertible");
        prop_assert!((a * inv).approx_eq(&Matrix::identity(), 1e-8));
        prop_assert!((inv * a).approx_eq(&Matrix::identity(), 1e-8));
    }

    #[test]
    fn cholesky_reconstructs_spd(seed in 0u64..10_000) {
        let mut rng = SovRng::seed_from_u64(seed);
        let b = Matrix::<3, 3>::from_fn(|_, _| rng.uniform(-1.0, 1.0));
        let spd = b * b.transpose() + Matrix::identity().scale(0.5);
        let l = spd.cholesky().expect("SPD by construction");
        prop_assert!((l * l.transpose()).approx_eq(&spd, 1e-9));
    }

    #[test]
    fn quaternion_rotation_preserves_length(
        ax in finite(-1.0..1.0),
        ay in finite(-1.0..1.0),
        az in finite(-1.0..1.0),
        angle_r in finite(-6.0..6.0),
        vx in finite(-10.0..10.0),
        vy in finite(-10.0..10.0),
        vz in finite(-10.0..10.0),
    ) {
        let q = Quaternion::from_axis_angle([ax, ay, az], angle_r);
        let v = Vector::from_array([vx, vy, vz]);
        let r = q.rotate(&v);
        prop_assert!((r.norm() - v.norm()).abs() < 1e-9);
    }

    #[test]
    fn angle_wrap_is_idempotent_and_in_range(theta in finite(-100.0..100.0)) {
        let w = angle::wrap(theta);
        prop_assert!(w > -std::f64::consts::PI - 1e-12);
        prop_assert!(w <= std::f64::consts::PI + 1e-12);
        prop_assert!((angle::wrap(w) - w).abs() < 1e-12);
        // Wrapping preserves the angle modulo 2π.
        prop_assert!(((theta - w) / std::f64::consts::TAU).round()
            - (theta - w) / std::f64::consts::TAU < 1e-6);
    }

    #[test]
    fn pose_compose_inverse_cancels(
        x in finite(-50.0..50.0),
        y in finite(-50.0..50.0),
        theta in finite(-6.0..6.0),
    ) {
        let p = Pose2::new(x, y, theta);
        let id = p.compose(&p.inverse());
        prop_assert!(id.x.abs() < 1e-9 && id.y.abs() < 1e-9 && id.theta.abs() < 1e-9);
    }

    #[test]
    fn ekf_covariance_stays_psd(seed in 0u64..3_000) {
        let mut rng = SovRng::seed_from_u64(seed);
        let mut ekf = Ekf::<2>::new(
            Vector::from_array([rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]),
            Matrix::from_diagonal([rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)]),
        );
        for _ in 0..30 {
            let f = Matrix::from_rows([[1.0, 0.1], [0.0, 1.0]]);
            let pred = f * *ekf.state();
            ekf.predict(pred, f, Matrix::from_diagonal([0.01, 0.01]));
            if rng.bernoulli(0.5) {
                let h = Matrix::<1, 2>::from_rows([[1.0, 0.0]]);
                let z = Vector::from_array([rng.uniform(-10.0, 10.0)]);
                let predicted = Vector::from_array([ekf.state()[0]]);
                ekf.update(z, predicted, h, Matrix::from_diagonal([1.0])).unwrap();
            }
            prop_assert!(ekf.covariance().is_positive_definite());
        }
    }

    #[test]
    fn summary_percentiles_are_ordered(values in prop::collection::vec(finite(-1e6..1e6), 1..200)) {
        let s: Summary = values.iter().copied().collect();
        let min = s.min();
        let max = s.max();
        let median = s.median();
        let p99 = s.p99();
        prop_assert!(min <= median && median <= p99 && p99 <= max);
        prop_assert!(min <= s.mean() && s.mean() <= max);
    }

    #[test]
    fn rng_uniform_respects_bounds(seed in 0u64..10_000, lo in finite(-100.0..0.0), span in finite(0.001..100.0)) {
        let mut rng = SovRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = rng.uniform(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span + 1e-9);
        }
    }

    #[test]
    fn unicycle_speed_times_time_bounds_distance(
        v in finite(0.0..9.0),
        omega in finite(-1.0..1.0),
        dt in finite(0.001..2.0),
    ) {
        let p = Pose2::identity().step_unicycle(v, omega, dt);
        let dist = (p.x * p.x + p.y * p.y).sqrt();
        // Chord length never exceeds arc length v·dt.
        prop_assert!(dist <= v * dt + 1e-9);
    }
}
