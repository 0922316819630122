//! The host's speed while a run measures.
//!
//! The sandbox is a few cores of a shared host. What its neighbours do
//! decides, from one moment to the next, whether a core retires
//! instructions at full speed or at about 0.6 of it, and the share of time
//! spent in the slow state drifts over minutes: the same request takes 0.9
//! to 1.4 times its typical time, a whole run is fast or slow, and no
//! estimator inside the run can tell. The drift is the host's, not a core's:
//! two probes pinned to the two cores disagree second by second
//! (correlation 0.3) and agree over 25 s (0.94).
//!
//! So a **monitor thread** of the harness runs a small frozen kernel (eight
//! independent integer multiply-add chains, about a millisecond) every
//! [`PROBE_PAUSE`] for as long as the run measures, and the run divides its
//! wall-clock metrics by the **slowdown** the monitor saw: the mean duration
//! of the kernel over its duration on the quiet reference host. A kernel
//! with high instruction throughput and no cache misses was chosen because
//! that is what the drift hits: while the simulator's time per plan spread
//! over 26 % of its median, this kernel spread over 29 % and the ratio of
//! the two over 4 %; pointer chases and a mispredicting interpreter moved by
//! a third as much. The kernel belongs to the harness, not to the program
//! under test, so no change to the program moves it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep between two probes: with a probe of about 1 ms the monitor takes
/// 5 % of one core, and a 20 s phase is sampled a thousand times.
const PROBE_PAUSE: Duration = Duration::from_millis(19);

const CHAIN_STEPS: u64 = 600_000;

/// Duration of the kernel on the reference host (the 2-CPU container the
/// benchmark was defined on) while its neighbours are quiet. It fixes the
/// unit of the normalised metrics — "at reference-host speed" — and nothing
/// else: a comparison of two commits divides it out.
const REFERENCE_MS: f64 = 0.94;

/// Share of the samples left out at each end of the mean: a probe that was
/// preempted half-way reads several times too long.
const TRIM: f64 = 0.02;

/// One probe: when it ran and the slowdown it saw (1.0 = the quiet
/// reference host).
#[derive(Clone, Copy, Debug)]
pub struct ProbeSample {
    pub at: Instant,
    pub slowdown: f64,
}

fn chains(steps: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let (mut e, mut f, mut g, mut h) = (5u64, 6u64, 7u64, 8u64);
    for i in 0..steps {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.wrapping_mul(5).wrapping_add(i);
        c = c.wrapping_mul(7).wrapping_add(i);
        d = d.wrapping_mul(9).wrapping_add(i);
        e = e.wrapping_add(a ^ i);
        f = f.wrapping_add(b ^ i);
        g = g.wrapping_add(c ^ i);
        h = h.wrapping_add(d ^ i);
    }
    a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

fn probe() -> ProbeSample {
    let at = Instant::now();
    black_box(chains(black_box(CHAIN_STEPS)));
    ProbeSample {
        at,
        slowdown: at.elapsed().as_secs_f64() * 1e3 / REFERENCE_MS,
    }
}

/// The running monitor thread; dropping it stops the thread too.
pub struct HostMonitor {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<ProbeSample>>>,
}

impl HostMonitor {
    pub fn start() -> std::io::Result<HostMonitor> {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::Builder::new()
            .name("host-monitor".to_string())
            .spawn(move || {
                let mut samples = Vec::new();
                // The flag publishes no data: the samples travel through
                // the join.
                while !stopped.load(Ordering::Relaxed) {
                    samples.push(probe());
                    std::thread::sleep(PROBE_PAUSE);
                }
                samples
            })?;
        Ok(HostMonitor {
            stop,
            thread: Some(thread),
        })
    }

    /// Stops the monitor and returns every sample it took.
    pub fn stop(mut self) -> Vec<ProbeSample> {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("the monitor is stopped once");
        thread.join().expect("the host monitor panicked")
    }
}

impl Drop for HostMonitor {
    fn drop(&mut self) {
        // An error path out of a run: the samples are of no use, but the
        // thread must still end before the process reports.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The slowdown of `[from, to]`: the mean of the interval's samples without
/// the [`TRIM`] largest and smallest. `None` without a sample.
pub fn slowdown(samples: &[ProbeSample], from: Instant, to: Instant) -> Option<f64> {
    let mut seen: Vec<f64> = samples
        .iter()
        .filter(|s| from <= s.at && s.at <= to)
        .map(|s| s.slowdown)
        .collect();
    seen.sort_by(f64::total_cmp);
    let cut = (seen.len() as f64 * TRIM) as usize;
    let kept = &seen[cut..seen.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_samples_until_stopped() {
        let monitor = HostMonitor::start().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        let samples = monitor.stop();
        assert!(samples.len() >= 2, "{} samples in 60 ms", samples.len());
        assert!(samples.iter().all(|s| s.slowdown > 0.0));
        assert!(samples.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn slowdown_is_the_trimmed_mean_of_the_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let sample = |ms, slowdown| ProbeSample {
            at: at(ms),
            slowdown,
        };
        let few = [
            sample(0, 9.0),
            sample(10, 1.0),
            sample(20, 1.2),
            sample(30, 2.0),
        ];
        // Too few to trim: the plain mean of the three inside the interval.
        assert!((slowdown(&few, at(5), at(40)).unwrap() - 1.4).abs() < 1e-12);
        assert_eq!(slowdown(&few, at(31), at(40)), None);
        // Fifty samples: the largest and the smallest are left out.
        let mut many: Vec<ProbeSample> = (0..48).map(|i| sample(i, 1.0)).collect();
        many.push(sample(48, 100.0));
        many.push(sample(49, 0.01));
        assert_eq!(slowdown(&many, at(0), at(49)), Some(1.0));
    }
}
