//! One module per SPECjvm98 benchmark modelled by this reproduction.
//!
//! Each module documents the demographic the paper reports for that
//! benchmark (collectable percentage with and without the §3.4 optimisation,
//! static and thread-shared shares, block sizes, ages at death) and defines a
//! [`Profile`] per problem size that reproduces it.
//!
//! The object counts are scaled down by a constant factor (roughly 4× for
//! size 1) relative to the paper so the whole suite runs in seconds rather
//! than hours; every experiment reports percentages and ratios, which are
//! preserved.  The `iterations` knob is what the SPEC sizes 1 → 10 → 100
//! scale, exactly as the real benchmarks' problem sizes do: the static setup
//! stays roughly constant while the dynamically allocated population grows,
//! which is why the paper's collectable percentages improve with size
//! (Figures 4.2–4.4 and 4.9).

pub mod compress;
pub mod db;
pub mod jack;
pub mod javac;
pub mod jess;
pub mod mpegaudio;
pub mod mtrt;
pub mod raytrace;

use crate::profile::Profile;
use crate::Size;

/// Names of the eight modelled benchmarks, in the order the paper lists them.
pub const BENCHMARK_NAMES: [&str; 8] = [
    "compress",
    "jess",
    "raytrace",
    "db",
    "javac",
    "mpegaudio",
    "mtrt",
    "jack",
];

/// Returns the profile of the named benchmark at the given size.
///
/// # Panics
///
/// Panics if `name` is not one of [`BENCHMARK_NAMES`].
pub fn profile_of(name: &str, size: Size) -> Profile {
    match name {
        "compress" => compress::profile(size),
        "jess" => jess::profile(size),
        "raytrace" => raytrace::profile(size),
        "db" => db::profile(size),
        "javac" => javac::profile(size),
        "mpegaudio" => mpegaudio::profile(size),
        "mtrt" => mtrt::profile(size),
        "jack" => jack::profile(size),
        other => panic!("unknown benchmark '{other}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_has_a_profile_for_every_size() {
        for name in BENCHMARK_NAMES {
            for size in [Size::S1, Size::S10, Size::S100] {
                let profile = profile_of(name, size);
                assert_eq!(profile.name, name);
                assert!(profile.iterations > 0, "{name} at {size:?} has no work");
                assert!(profile.expected_objects() > 0);
            }
        }
        assert_eq!(BENCHMARK_NAMES.len(), 8);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = profile_of("quake", Size::S1);
    }

    #[test]
    fn larger_sizes_allocate_more_dynamic_objects() {
        for name in BENCHMARK_NAMES {
            let s1 = profile_of(name, Size::S1).expected_objects();
            let s10 = profile_of(name, Size::S10).expected_objects();
            let s100 = profile_of(name, Size::S100).expected_objects();
            assert!(s10 >= s1, "{name}: size 10 should not shrink");
            assert!(s100 >= s10, "{name}: size 100 should not shrink");
        }
    }

    #[test]
    fn allocation_heavy_benchmarks_grow_much_faster_than_computational_ones() {
        // The paper: jess/raytrace/db/javac/jack grow by orders of magnitude
        // from size 1 to 100; compress and mpegaudio barely grow.
        let growth = |name: &str| {
            profile_of(name, Size::S100).expected_objects() as f64
                / profile_of(name, Size::S1).expected_objects() as f64
        };
        assert!(growth("jess") > 10.0);
        assert!(growth("jack") > 10.0);
        assert!(growth("db") > 10.0);
        assert!(growth("compress") < 3.0);
        assert!(growth("mpegaudio") < 3.0);
    }
}
