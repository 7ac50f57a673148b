//! The box's speed of the moment, read from a fixed reference workload.
//!
//! The box shares its last-level cache and memory bandwidth with other
//! tenants, and its speed moves between levels up to 1.8× apart, for
//! seconds to minutes at a time. The simulations are bound by memory
//! access and slow down with it; a run that falls into a slow phase
//! reads slow whatever statistic it takes over its rounds. The probe is
//! a memory-bound walk timed after every timed simulation, and the timing
//! metrics divide each measured time by the probe times around it. The
//! probe's code is the benchmark's own, so a change to the simulator
//! moves the simulation's time and not the probe's.

use std::time::{Duration, Instant};

/// Words in the probe's buffer: 64 MiB, well past the private caches and
/// a large share of the shared one.
const WORDS: usize = 8 << 20;
/// Random read-modify-write steps per probe: about 0.1 s on the box the
/// benchmark was made on.
const STEPS: u64 = 3_000_000;
/// The probe time the timing metrics are scaled to: they read as seconds
/// on a box where one probe takes exactly this long.
pub const NOMINAL_S: f64 = 0.1;

/// The reference workload and its buffer.
pub struct SpeedProbe {
    buf: Vec<u64>,
}

impl SpeedProbe {
    /// Allocates and touches the buffer (a non-zero fill, so no page is
    /// left to fault in during a timed probe).
    pub fn new() -> Self {
        SpeedProbe {
            buf: vec![1; WORDS],
        }
    }

    /// Times one probe: the same fixed walk every call.
    pub fn time(&mut self) -> Duration {
        let start = Instant::now();
        let words = self.buf.len() as u64;
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = ((x >> 20) % words) as usize;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        std::hint::black_box(&mut self.buf);
        start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_its_work_every_call() {
        let mut probe = SpeedProbe::new();
        let before: u64 = probe.buf.iter().fold(0, |a, w| a.wrapping_add(*w));
        assert!(probe.time() > Duration::ZERO);
        let after: u64 = probe.buf.iter().fold(0, |a, w| a.wrapping_add(*w));
        assert_ne!(before, after, "the walk must write the buffer");
    }
}
