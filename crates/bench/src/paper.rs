//! Values reported by the paper, transcribed from the thesis figures, used
//! to generate paper-vs-measured comparison records.
//!
//! Only headline quantities are transcribed (one or two per benchmark per
//! figure); the point of the records is to audit the *shape* of the
//! reproduction — who wins, by roughly how much, where the extremes are —
//! not to chase absolute numbers measured on 1999 hardware and the real
//! SPECjvm98 inputs.

/// Figure 4.1 (size 1): per benchmark, `(objects created, % collectable
/// without the §3.4 optimisation, % collectable with it)`.
pub const FIG4_1: [(&str, u64, f64, f64); 8] = [
    ("compress", 5_123, 9.0, 11.0),
    ("jess", 45_867, 35.0, 61.0),
    ("raytrace", 276_960, 98.0, 98.0),
    ("db", 7_608, 18.0, 36.0),
    ("javac", 26_116, 23.0, 24.0),
    ("mpegaudio", 7_550, 6.0, 7.0),
    ("mtrt", 276_084, 98.0, 98.0),
    ("jack", 393_742, 69.0, 89.0),
];

/// Figure 4.5 (size 1): per benchmark, the percentage of collectable objects
/// that sit in singleton ("exact") blocks.
pub const FIG4_5_PERCENT_EXACT: [(&str, f64); 8] = [
    ("compress", 3.0),
    ("jess", 7.0),
    ("raytrace", 15.0),
    ("db", 4.0),
    ("javac", 11.0),
    ("mpegaudio", 2.0),
    ("mtrt", 15.0),
    ("jack", 30.0),
];

/// Figure 4.7 (size 1): per benchmark, the speedup of CG over the JDK 1.1.8
/// base system (values below 1.0 are slowdowns).
pub const FIG4_7_SPEEDUP: [(&str, f64); 7] = [
    ("compress", 0.92),
    ("jess", 0.89),
    ("raytrace", 0.79),
    ("db", 0.95),
    ("javac", 1.11),
    ("mpegaudio", 0.97),
    ("jack", 0.91),
];

/// Figure 4.8 (size 10): speedup of CG over the base system.
pub const FIG4_8_SPEEDUP: [(&str, f64); 7] = [
    ("compress", 0.93),
    ("jess", 0.91),
    ("raytrace", 0.80),
    ("db", 0.91),
    ("javac", 0.92),
    ("mpegaudio", 0.97),
    ("jack", 0.92),
];

/// Figure 4.9 (size 100): per benchmark, `(objects created, % collectable
/// with the optimisation, % exactly collectable)`.
pub const FIG4_9: [(&str, u64, f64, f64); 8] = [
    ("compress", 6_959, 28.0, 27.0),
    ("jess", 7_924_661, 41.0, 42.0),
    ("raytrace", 6_346_978, 99.0, 82.0),
    ("db", 3_211_531, 99.0, 0.0),
    ("javac", 5_879_703, 91.0, 12.0),
    ("mpegaudio", 7_582, 9.0, 30.0),
    ("mtrt", 6_585_974, 99.0, 80.0),
    ("jack", 6_863_344, 90.0, 37.0),
];

/// Figure 4.10 (size 100): speedup of CG over the base system on the large
/// runs (the headline wins of the paper).
pub const FIG4_10_LARGE_SPEEDUP: [(&str, f64); 7] = [
    ("compress", 0.98),
    ("jess", 3.18),
    ("raytrace", 1.71),
    ("db", 0.94),
    ("javac", 2.77),
    ("mpegaudio", 1.30),
    ("jack", 1.98),
];

/// Figure 4.12 (size 1): speedup of CG-with-recycling over plain CG.
pub const FIG4_12_RECYCLE_SPEEDUP: [(&str, f64); 8] = [
    ("compress", 1.03),
    ("jess", 0.99),
    ("raytrace", 0.97),
    ("db", 1.01),
    ("javac", 0.99),
    ("mpegaudio", 1.02),
    ("mtrt", 1.02),
    ("jack", 1.00),
];

/// Figure 4.13 (size 1): percentage of allocated objects served from the
/// recycle list.
pub const FIG4_13_PERCENT_RECYCLED: [(&str, f64); 8] = [
    ("compress", 6.01),
    ("jess", 29.93),
    ("raytrace", 11.62),
    ("db", 9.23),
    ("javac", 21.83),
    ("mpegaudio", 4.15),
    ("mtrt", 11.38),
    ("jack", 56.47),
];

/// Appendix A.2 (size 1): per benchmark, `(popped, static, thread-shared)`.
pub const FIGA_2_BREAKDOWN_SMALL: [(&str, u64, u64, u64); 8] = [
    ("compress", 545, 4_576, 2),
    ("jess", 27_991, 17_874, 2),
    ("raytrace", 272_316, 4_599, 45),
    ("db", 2_701, 4_905, 2),
    ("javac", 6_366, 5_490, 14_255),
    ("mpegaudio", 547, 7_001, 2),
    ("mtrt", 271_456, 4_583, 45),
    ("jack", 349_936, 43_804, 2),
];

/// Looks up a per-benchmark value in one of the constant tables.
pub fn lookup<T: Copy>(table: &[(&str, T)], benchmark: &str) -> Option<T> {
    table
        .iter()
        .find(|(name, _)| *name == benchmark)
        .map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_cover_the_benchmarks() {
        let benchmarks = [
            "compress",
            "jess",
            "raytrace",
            "db",
            "javac",
            "mpegaudio",
            "mtrt",
            "jack",
        ];
        for (name, ..) in FIG4_1 {
            assert!(benchmarks.contains(&name));
        }
        assert_eq!(FIG4_1.len(), 8);
        assert_eq!(FIG4_9.len(), 8);
        assert_eq!(FIGA_2_BREAKDOWN_SMALL.len(), 8);
        // The timing figures omit mtrt (the paper's Figures 4.7/4.8 do too).
        assert_eq!(FIG4_7_SPEEDUP.len(), 7);
    }

    #[test]
    fn lookup_finds_values() {
        assert_eq!(lookup(&FIG4_5_PERCENT_EXACT, "jack"), Some(30.0));
        assert_eq!(lookup(&FIG4_5_PERCENT_EXACT, "nonexistent"), None);
        assert_eq!(lookup(&FIG4_10_LARGE_SPEEDUP, "jess"), Some(3.18));
    }

    #[test]
    fn breakdown_rows_sum_to_roughly_the_created_objects() {
        for (name, created, _, _) in FIG4_1 {
            let (_, popped, statics, thread) = FIGA_2_BREAKDOWN_SMALL
                .iter()
                .copied()
                .find(|(n, ..)| *n == name)
                .unwrap();
            let total = popped + statics + thread;
            let diff = created.abs_diff(total);
            assert!(diff * 100 <= created * 2, "{name}: {created} vs {total}");
        }
    }
}
