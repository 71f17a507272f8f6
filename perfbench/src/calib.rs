//! The calibration loop: a fixed amount of host work that shares no code
//! with the simulator, timed right before every timed sample.
//!
//! On a shared host the simulator's speed drifts by a third over minutes,
//! with contention for the memory system and for the core itself. The loop
//! has two parts that feel one each: a random read-modify-write walk over
//! 8 MiB, and a small set-associative cache model whose tag compares and
//! LRU choices are as branchy as the simulator's own hot paths. Their
//! geometric mean tracked the simulator's drift on all three workloads far
//! better than either part alone, so `sample / calibration` is much steadier
//! than the sample. Changes to the simulator cannot move the loop.

use std::hint::black_box;
use std::time::Instant;

/// Words in the walked buffer (8 MiB).
const WORDS: usize = 1 << 20;
/// Read-modify-writes per walk.
const WALK_STEPS: u64 = 500_000;
/// Sets and ways of the cache model (16 KiB of tags and stamps).
const SETS: usize = 256;
const WAYS: usize = 4;
/// References per cache-model run.
const MODEL_REFS: u32 = 400_000;

/// The calibration loop's state, allocated once.
pub struct Calibrator {
    buf: Vec<u64>,
    tags: Vec<u32>,
    stamps: Vec<u32>,
}

impl Calibrator {
    /// Allocates and touches the buffers.
    pub fn new() -> Self {
        Calibrator {
            buf: (0..WORDS as u64).collect(),
            tags: vec![0; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
        }
    }

    /// Host nanoseconds of one calibration: the geometric mean of the two
    /// parts' times.
    pub fn ns(&mut self) -> u64 {
        let walk = self.walk_ns() as f64;
        let model = self.model_ns() as f64;
        (walk * model).sqrt() as u64
    }

    /// The memory-system part. An untimed sweep first brings the buffer
    /// back into the host caches, so the time does not depend on how much
    /// of it the previous sample evicted.
    fn walk_ns(&mut self) -> u64 {
        black_box(self.buf.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
        let t0 = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..WALK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % WORDS as u64) as usize;
            self.buf[j] = self.buf[j].wrapping_add(i);
        }
        black_box(&mut self.buf);
        t0.elapsed().as_nanos() as u64
    }

    /// The core part: a 4-way LRU cache model over a mostly local stream.
    fn model_ns(&mut self) -> u64 {
        let t0 = Instant::now();
        let mut x: u32 = 12_345;
        let mut hits = 0u32;
        for now in 0..MODEL_REFS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let addr = if x & 7 != 0 {
                (x >> 8) & 0x3fff
            } else {
                x >> 4
            };
            let set = ((addr >> 5) as usize % SETS) * WAYS;
            let tag = addr >> 13;
            let ways = set..set + WAYS;
            match ways.clone().find(|&w| self.tags[w] == tag) {
                Some(w) => {
                    hits += 1;
                    self.stamps[w] = now;
                }
                None => {
                    let victim = ways.min_by_key(|&w| self.stamps[w]).unwrap_or(set);
                    self.tags[victim] = tag;
                    self.stamps[victim] = now;
                }
            }
        }
        black_box(hits);
        t0.elapsed().as_nanos() as u64
    }
}
