//! The record population every workload samples from.
//!
//! The population is fixed: one seeded generator whose rows are pure
//! functions of their index. A run's `--seed` picks which rows it draws, so
//! seeds change the inputs but not their distribution, and quality
//! metrics (yNN, final loss) compare across seeds.

use ifair::data::generators::large::{LargeScale, LargeScaleConfig};
use ifair::data::Dataset;

/// Numeric features; the protected bit makes the width one more.
pub const N_NUMERIC: usize = 16;
const POPULATION_SEED: u64 = 0x1fa1_2019;
const POPULATION_SIZE: usize = 1 << 32;

/// Which part of a run's inputs a window serves, so the sets one seed
/// draws do not overlap by accident.
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
pub enum Use {
    Train = 0x7472_6169_6e00_0000,
    Requests = 0x7265_7175_6573_7400,
    Eval = 0x6576_616c_0000_0000,
    Shards = 0x7368_6172_6473_0000,
}

/// The population generator.
pub fn population() -> LargeScale {
    LargeScale::new(LargeScaleConfig {
        n_records: POPULATION_SIZE,
        n_numeric: N_NUMERIC,
        seed: POPULATION_SEED,
        ..LargeScaleConfig::default()
    })
}

/// First row of the `n`-row window that `seed` draws for `purpose`.
pub fn offset(seed: u64, purpose: Use, n: usize) -> usize {
    // splitmix64 finalizer: nearby seeds land far apart.
    let mut z = seed ^ purpose as u64;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % (POPULATION_SIZE - n) as u64) as usize
}

/// The `n` records `seed` draws for `purpose`.
pub fn records(seed: u64, purpose: Use, n: usize) -> Dataset {
    let lo = offset(seed, purpose, n);
    population()
        .materialize(lo, lo + n)
        .expect("window lies inside the population")
}
