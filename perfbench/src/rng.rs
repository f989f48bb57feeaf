//! Deterministic inputs from the workload seed.

use tsan11rec::vos::EnvRng;

/// The scheduler seeds of iteration `index` of a run with `seed`.
#[must_use]
pub fn scheduler_seeds(seed: u64, index: u64) -> [u64; 2] {
    let mut rng = EnvRng::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    [rng.next_u64(), rng.next_u64()]
}
