//! The open-loop driver (`replimid_core::driver`'s open shape) attached to
//! a built cluster.

use replimid_core::{Cluster, Driver};
use replimid_simnet::NodeId;

pub use replimid_core::{ArrivalProcess, OpenLoopConfig, OpenLoopMetrics};

/// Attach an open-loop driver to a built cluster; requests go to
/// `cluster.mw_nodes[mw]`, and the driver's session-id block is reserved
/// from the cluster's allocator so later clients cannot collide. Returns
/// the driver's node id.
pub fn add_open_loop(cluster: &mut Cluster, mw: usize, mut cfg: OpenLoopConfig) -> NodeId {
    cfg.middleware = cluster.mw_nodes[mw];
    cfg.first_session = cluster.alloc_sessions(cfg.max_inflight.max(1));
    cluster.sim.add_node(Driver::open_loop(cfg))
}

/// Snapshot an attached driver's metrics.
pub fn open_loop_metrics(cluster: &mut Cluster, node: NodeId) -> OpenLoopMetrics {
    cluster.sim.with_actor::<Driver, _>(node, |d| OpenLoopMetrics::from(&d.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use replimid_core::Histogram;
    use replimid_det::DetRng;

    #[test]
    fn poisson_rate_is_close_and_deterministic() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 500.0 };
        let mut rng = DetRng::seed_from_u64(11);
        let mut t = 0u64;
        let mut n = 0u64;
        while t < 20_000_000 {
            t = p.next_arrival_us(t, &mut rng);
            n += 1;
        }
        let rate = n as f64 / 20.0;
        assert!((rate - 500.0).abs() < 25.0, "measured {rate}/s, wanted ~500/s");
        // Same seed, same stream.
        let mut rng2 = DetRng::seed_from_u64(11);
        let mut t2 = 0u64;
        for _ in 0..100 {
            t2 = p.next_arrival_us(t2, &mut rng2);
        }
        let mut rng3 = DetRng::seed_from_u64(11);
        let mut t3 = 0u64;
        for _ in 0..100 {
            t3 = p.next_arrival_us(t3, &mut rng3);
        }
        assert_eq!(t2, t3);
    }

    #[test]
    fn diurnal_rate_swings_between_base_and_peak() {
        let d = ArrivalProcess::Diurnal {
            base_per_sec: 100.0,
            peak_per_sec: 900.0,
            period_us: 10_000_000,
        };
        assert!((d.rate_at(0) - 100.0).abs() < 1e-6, "trough at phase 0");
        assert!((d.rate_at(5_000_000) - 900.0).abs() < 1e-6, "peak at half period");
        // Thinned arrivals: trough seconds see far fewer than peak seconds.
        let mut rng = DetRng::seed_from_u64(3);
        let mut per_sec = [0u64; 10];
        let mut t = 0u64;
        loop {
            t = d.next_arrival_us(t, &mut rng);
            if t >= 10_000_000 {
                break;
            }
            per_sec[(t / 1_000_000) as usize] += 1;
        }
        let trough = per_sec[0] + per_sec[9];
        let peak = per_sec[4] + per_sec[5];
        assert!(
            peak > trough * 3,
            "diurnal envelope not visible: trough {trough}, peak {peak}"
        );
    }

    #[test]
    fn window_quantile_merges_per_second_histograms() {
        let mut m = OpenLoopMetrics::default();
        m.per_sec_sojourn.resize_with(3, Histogram::new);
        m.per_sec_sojourn[0].record(100);
        m.per_sec_sojourn[1].record(1_000);
        m.per_sec_sojourn[2].record(10_000);
        assert!(m.window_quantile_us(0, 3, 0.99) >= 1_000);
        assert_eq!(m.window_quantile_us(3, 3, 0.99), 0);
        m.per_sec_completed = vec![5, 7, 9];
        assert_eq!(m.completed_in(0, 2), 12);
        assert_eq!(m.completed_in(1, 3), 16);
    }
}
