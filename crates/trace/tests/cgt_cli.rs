//! The `cgt` command line on damaged and aliased inputs: `convert` must
//! never destroy its input or leave a half-written destination, and no
//! subcommand may report statistics for events a stream lost.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cgt(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cgt"))
        .args(args)
        .output()
        .expect("cgt runs")
}

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgt-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every file in `dir`, by name.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("scratch dir")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// The byte spans of every chunk after the header, footer last.
fn chunk_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    fn varint(bytes: &[u8], at: &mut usize) -> usize {
        let (mut value, mut shift) = (0, 0);
        loop {
            let byte = bytes[*at];
            *at += 1;
            value |= usize::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
    }
    // Magic and version, then the length-prefixed header and its CRC.
    let mut at = 6;
    let header = varint(bytes, &mut at);
    at += header + 4;
    let mut spans = Vec::new();
    while at < bytes.len() {
        let start = at;
        at += 1; // kind
        varint(bytes, &mut at); // events
        varint(bytes, &mut at); // raw length
        let stored = varint(bytes, &mut at);
        at += 1 + stored + 4; // codec, payload, CRC
        spans.push(start..at);
    }
    spans
}

#[test]
fn converting_a_file_onto_itself_keeps_it_whole() {
    let dir = scratch_dir("self");
    let copy = dir.join("db.cgt");
    let converted = cgt(&[Path::new("convert"), &golden("db-s1.cgt"), &copy]);
    assert!(converted.status.success(), "{converted:?}");
    let onto_itself = cgt(&[Path::new("convert"), &copy, &copy]);
    assert!(onto_itself.status.success(), "{onto_itself:?}");
    let diff = cgt(&[Path::new("diff"), &golden("db-s1.cgt"), &copy]);
    assert!(diff.status.success(), "{diff:?}");
    assert_eq!(
        listing(&dir),
        ["db.cgt"],
        "no temporary file is left behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_convert_leaves_the_destination_untouched() {
    let dir = scratch_dir("broken");
    let broken = dir.join("broken.cgt");
    let mut bytes = std::fs::read(golden("db-s1.cgt")).expect("golden trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&broken, &bytes).expect("write broken copy");

    // No destination yet: none is created.
    let fresh = dir.join("fresh.cgt");
    let out = cgt(&[Path::new("convert"), &broken, &fresh]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    // An existing destination keeps its bytes.
    let existing = dir.join("existing.cgt");
    std::fs::write(&existing, b"keep me").expect("write destination");
    let out = cgt(&[Path::new("convert"), &broken, &existing]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert_eq!(std::fs::read(&existing).expect("destination"), b"keep me");

    assert_eq!(listing(&dir), ["broken.cgt", "existing.cgt"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Zero is refused where it means nothing — a chunk of no events, a
/// collection every 0 instructions — with the usage error, before any
/// output or temporary file exists.  `--timeout-ms 0` ("no timeout") is
/// still accepted.
#[test]
fn zero_chunk_events_or_gc_every_is_a_usage_error_that_leaves_no_file() {
    let dir = scratch_dir("zero");
    let out = dir.join("db.cgt");
    let zero = Path::new("0");
    for flag in ["--chunk-events", "--gc-every"] {
        let run = cgt(&[
            Path::new("record"),
            Path::new("db/1"),
            Path::new("--out"),
            &out,
            Path::new(flag),
            zero,
        ]);
        assert_eq!(run.status.code(), Some(2), "{flag}: {run:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(&format!("{flag} must be a positive integer")));
    }
    let copy = dir.join("copy.cgt");
    let run = cgt(&[
        Path::new("convert"),
        &golden("db-s1.cgt"),
        &copy,
        Path::new("--chunk-events"),
        zero,
    ]);
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    assert!(listing(&dir).is_empty(), "left behind: {:?}", listing(&dir));

    // Nothing listens on port 1: the timeout is accepted and the connection
    // fails, which is not a usage error.
    let run = cgt(&[
        Path::new("metrics"),
        Path::new("--addr"),
        Path::new("127.0.0.1:1"),
        Path::new("--timeout-ms"),
        zero,
    ]);
    assert_ne!(run.status.code(), Some(2), "{run:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stream with its last event chunk cut out — every CRC still valid —
/// is corrupt: the footer's census counts events the stream no longer
/// holds.
#[test]
fn a_dropped_chunk_is_corrupt_not_a_shorter_trace() {
    let dir = scratch_dir("dropped");
    let small = dir.join("small.cgt");
    let out = cgt(&[
        Path::new("convert"),
        &golden("db-s1.cgt"),
        &small,
        Path::new("--chunk-events"),
        Path::new("16"),
        Path::new("--no-compress"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let bytes = std::fs::read(&small).expect("converted trace");
    let spans = chunk_spans(&bytes);
    let last_events = spans[spans.len() - 2].clone();
    let mut dropped = bytes[..last_events.start].to_vec();
    dropped.extend_from_slice(&bytes[last_events.end..]);
    let path = dir.join("dropped.cgt");
    std::fs::write(&path, &dropped).expect("write dropped-chunk trace");

    for command in ["info", "verify"] {
        let out = cgt(&[Path::new(command), &path]);
        assert_eq!(out.status.code(), Some(3), "cgt {command}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("census"), "cgt {command}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
