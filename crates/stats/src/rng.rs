//! Deterministic random-number-generation helpers.
//!
//! Every stochastic component in the workspace (dataset generation,
//! Monte Carlo worlds, k-means initialisation, forest bagging) is
//! seeded explicitly so that experiments are bit-reproducible. ChaCha8
//! is used because its output is stable across platforms and `rand`
//! versions (unlike `StdRng`, whose algorithm is unspecified), and its
//! independent stream feature gives cheap per-world substreams.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Creates the RNG for one Monte Carlo world: an independent ChaCha
/// stream derived from `(base_seed, world_index)`.
///
/// Streams are independent by construction, so worlds can be evaluated
/// in parallel, in any order, on any number of threads, and still
/// reproduce identical results.
pub fn world_rng(base_seed: u64, world_index: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(base_seed);
    // Stream 0 is the base RNG itself; shift by 1 to keep worlds
    // disjoint from any direct use of `seeded_rng(base_seed)`.
    rng.set_stream(world_index.wrapping_add(1));
    rng
}

/// Creates the RNG for one fixed-size generation chunk of a
/// word-generated Bernoulli world.
///
/// `tag` is the 64-bit value the world's own stream emits first (one
/// `next_u64` from the [`world_rng`] stream), which keys an independent
/// ChaCha generator; `chunk` selects its stream. Because every chunk
/// RNG is positioned absolutely — not relative to the draws of the
/// chunks before it — chunks can be generated sequentially, in
/// parallel, or split across engine shards and still produce the same
/// labels bit for bit.
pub fn chunk_rng(tag: u64, chunk: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(tag);
    rng.set_stream(chunk);
    rng
}

/// The ChaCha key every [`chunk_rng`]`(tag, ·)` shares: a world's
/// chunk substreams differ only in their stream, so the key is derived
/// once per world.
pub fn chunk_key(tag: u64) -> [u32; 8] {
    ChaCha8Rng::seed_from_u64(tag).key()
}

/// Derives a fresh 64-bit seed for a named sub-component from a master
/// seed, using the SplitMix64 finalizer. Lets one user-facing seed
/// drive many independent generators without manual bookkeeping.
pub fn derive_seed(master: u64, component: &str) -> u64 {
    // FNV-1a over the component name, mixed with SplitMix64.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in component.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(master ^ h)
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a: u64 = seeded_rng(42).gen();
        let b: u64 = seeded_rng(42).gen();
        assert_eq!(a, b);
        let c: u64 = seeded_rng(43).gen();
        assert_ne!(a, c);
    }

    #[test]
    fn world_rngs_are_distinct_streams() {
        let a: u64 = world_rng(1, 0).gen();
        let b: u64 = world_rng(1, 1).gen();
        let c: u64 = world_rng(2, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn world_rng_differs_from_base_rng() {
        let base: u64 = seeded_rng(7).gen();
        let world0: u64 = world_rng(7, 0).gen();
        assert_ne!(base, world0, "world stream must not alias the base stream");
    }

    #[test]
    fn world_rng_reproducible() {
        let a: Vec<u64> = (0..5).map(|i| world_rng(9, i).gen()).collect();
        let b: Vec<u64> = (0..5).map(|i| world_rng(9, i).gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn chunk_rngs_are_independent_and_absolute() {
        let a: u64 = chunk_rng(5, 0).gen();
        let b: u64 = chunk_rng(5, 1).gen();
        let c: u64 = chunk_rng(6, 0).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(b, chunk_rng(5, 1).gen::<u64>(), "reproducible");
    }

    #[test]
    fn derive_seed_separates_components() {
        let a = derive_seed(5, "kmeans");
        let b = derive_seed(5, "forest");
        let c = derive_seed(6, "kmeans");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(5, "kmeans"));
    }
}
