//! `open-ladder` — open loop, Poisson arrivals, a ladder of rates from far
//! below to well above today's knee, one fresh cluster per step.
//!
//! Latency against rate, and the knee: the lowest step is the low-load
//! point where the 200 µs batch deadline is a pure tax; the steps above
//! today's knee (about 20 000/s) leave room for `max_rate_ok` to rise.
//! Same cluster shape as `write-sat`, but 10 % inserts / 90 % point reads
//! on a 100-row table, so `simnet` and the middleware's per-request
//! bookkeeping carry the largest share here.

use replimid_core::TxSource;

use super::gen::OpenMirror;
use super::open::{self, OpenResult};
use super::*;

pub const RATES: [u64; 8] = [2_000, 8_000, 12_000, 16_000, 20_000, 24_000, 28_000, 32_000];
/// The step the latency limit is judged at.
const SLO_RATE: u64 = 16_000;
/// Per step: arrivals at the step's rate for the warm-up (plan cache,
/// batcher and queues reach their steady state), then the measured window.
const WARMUP_US: u64 = 250_000;
const STEP_US: u64 = 1_000_000;
const MAX_INFLIGHT: usize = 64;
/// Latency limit: 2^10 = 1024 µs.
const SLO_POW2: usize = 10;
const SLO_TARGET: f64 = 0.99;

pub fn sources(seed: u64) -> Vec<Box<dyn TxSource>> {
    vec![Box::new(OpenMirror::new(seed, 0, open::WRITE_PERMILLE))]
}

pub fn rep(o: &Opts, t: &mut Tracer) -> Result<Rep, String> {
    let (warmup_us, step_us) = (o.scaled(WARMUP_US), o.scaled(STEP_US));
    let mut rep = Rep::default();
    let mut steps: Vec<(u64, OpenResult)> = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        let mut oc = t.phase("bench.setup", |_| {
            open::build(
                o,
                open::cluster_config(o),
                rate as f64,
                MAX_INFLIGHT,
                warmup_us + step_us,
                i as u64,
            )
        });
        let warm = open::warm_up(&mut oc, warmup_us, t);
        let r = t.phase("bench.run", |t| open::run(&mut oc, &warm, t))?;
        t.phase("bench.collect", |_| {
            if i == 0 {
                // Low-load point: where the stage shares are read.
                open::cluster_layers(&mut rep.layer, &mut oc, &r);
                rep.layer.insert(
                    "core.middleware.write_latency_us".into(),
                    r.window.write_latency.mean_us(),
                );
                sim_per_op(&mut rep.layer, r.sim_before, r.window.sim, r.window.ok);
            }
            if rate == SLO_RATE {
                open::driver_layers(&mut rep.layer, &r);
            }
        });
        t.phase("bench.check", |t| open::check(&mut oc, &r, t, true))?;
        steps.push((rate, r));
    }

    let slo = &steps
        .iter()
        .find(|(rate, _)| *rate == SLO_RATE)
        .expect("SLO step is on the ladder")
        .1;
    let (low, top) = (&steps[0].1, &steps[steps.len() - 1].1);
    rep.e2e
        .insert("tps", top.ok_by_stop as f64 * 1e6 / step_us as f64);
    rep.e2e
        .insert("lat_mean_us", low.window.ok_sojourn.mean_us());
    rep.e2e
        .insert("slo_ok_ratio", slo.window.slo_ok_ratio(SLO_POW2));
    let max_rate_ok = steps
        .iter()
        .filter(|(_, r)| r.window.slo_ok_ratio(SLO_POW2) >= SLO_TARGET && r.kept_up)
        .map(|(rate, _)| *rate)
        .max()
        .unwrap_or(0);
    rep.layer
        .insert("e2e.max_rate_ok".into(), max_rate_ok as f64);
    for (rate, r) in &steps {
        rep.layer.insert(
            format!("workload.ladder.lat_mean_us.r{rate}"),
            r.window.ok_sojourn.mean_us(),
        );
        rep.layer.insert(
            format!("workload.ladder.slo_ok_ratio.r{rate}"),
            r.window.slo_ok_ratio(SLO_POW2),
        );
        rep.ops += r.window.ok;
        rep.attempted += r.window.settled();
        rep.failed += r.window.failed();
        rep.events += r.window.sim.events_processed - r.sim_before.events_processed;
        rep.window_us += step_us;
    }
    Ok(rep)
}
