//! Seeded traffic: the random stream, the skewed app pick, and the
//! open-loop arrival schedule. Everything here is a pure function of the
//! seed, so one seed always yields the same due times and the same apps.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The seeded generator for one independent use (`stream`) of a seed.
pub fn stream(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Zipf-distributed picks over a fixed item list: the item at rank `k`
/// (1-based) is drawn with weight `1 / k^s`. Which item holds which rank
/// is a seeded shuffle, so the hot set differs between seeds.
#[derive(Debug, Clone)]
pub struct Zipf {
    ranked: Vec<u64>,
    cdf: Vec<f64>,
    rng: SmallRng,
}

impl Zipf {
    /// Picks over `items` with exponent `s`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn new(items: &[u64], s: f64, seed: u64) -> Zipf {
        assert!(!items.is_empty(), "nothing to pick from");
        let mut ranked = items.to_vec();
        ranked.shuffle(&mut stream(seed, 1));
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=ranked.len())
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf {
            ranked,
            cdf,
            rng: stream(seed, 2),
        }
    }

    /// The next pick.
    pub fn pick(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.ranked.len() - 1);
        self.ranked[rank]
    }
}

/// Open-loop arrivals at a fixed mean rate with exponential gaps
/// (independent users), as offsets from the start of the phase.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: SmallRng,
    mean_gap_s: f64,
    at_s: f64,
}

impl Arrivals {
    /// Arrivals at `rate` per second.
    pub fn new(rate: f64, seed: u64) -> Arrivals {
        Arrivals {
            rng: stream(seed, 3),
            mean_gap_s: 1.0 / rate,
            at_s: 0.0,
        }
    }

    /// Offset of the next arrival from the start of the phase.
    pub fn next_offset(&mut self) -> Duration {
        self.at_s += -(1.0 - self.rng.gen::<f64>()).ln() * self.mean_gap_s;
        Duration::from_secs_f64(self.at_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_schedule_and_one_pick_sequence() {
        let apps: Vec<u64> = (100..1100).collect();
        let run = |seed| {
            let mut arrivals = Arrivals::new(800.0, seed);
            let mut zipf = Zipf::new(&apps, 1.0, seed);
            (0..5000)
                .map(|_| (arrivals.next_offset(), zipf.pick()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn arrivals_keep_their_mean_rate() {
        let mut arrivals = Arrivals::new(1000.0, 3);
        let last = (0..20_000).map(|_| arrivals.next_offset()).last().unwrap();
        let rate = 20_000.0 / last.as_secs_f64();
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
    }

    #[test]
    fn zipf_favours_its_top_rank() {
        let apps: Vec<u64> = (0..1000).collect();
        let mut zipf = Zipf::new(&apps, 1.0, 11);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(zipf.pick()).or_insert(0u32) += 1;
        }
        let top = *counts.values().max().unwrap();
        // rank 1 carries 1/H(1000) ≈ 13% of the mass
        assert!(top > 5_000 && top < 8_500, "top count {top}");
        assert!(counts.len() > 500, "the tail is reached");
    }
}
