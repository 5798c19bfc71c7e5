//! `.cgt` robustness: damaged, truncated or future-versioned files must
//! fail with clean [`TraceIoError`]s — never panics, never silent
//! misreads.  Chunked CRC framing localizes a flipped byte to one chunk.

use cg_trace::{TraceIoError, TraceMeta, TraceReader, TraceWriter, FORMAT_VERSION};
use cg_vm::{FrameId, FrameInfo, GcEvent, Handle, MethodId, RootSet, ThreadId};

fn frame(id: u64) -> FrameInfo {
    FrameInfo {
        id: FrameId::new(id),
        depth: 1,
        thread: ThreadId::MAIN,
        method: MethodId::new(0),
    }
}

/// A trace big enough to span several chunks at the default chunk size.
fn sample_trace() -> Vec<GcEvent> {
    let mut t = Vec::new();
    t.push(GcEvent::FramePush { frame: frame(1) });
    for i in 0..20_000u32 {
        t.push(GcEvent::SlotWrite {
            object: Handle::from_index(i % 571),
            slot: (i % 7) as usize,
            value: (i % 3 == 0).then(|| Handle::from_index(i % 113)),
            element: i % 2 == 0,
        });
    }
    t.push(GcEvent::FramePop { frame: frame(1) });
    t.push(GcEvent::ProgramEnd {
        roots: Box::new(RootSet::default()),
    });
    t
}

fn sample_bytes() -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), &TraceMeta::default()).expect("header");
    for event in &sample_trace() {
        writer.push(event).expect("push");
    }
    writer.finish().expect("finish").0
}

/// Reads a whole plain stream, to and including its footer.
fn read_trace(bytes: &[u8]) -> Result<Vec<GcEvent>, TraceIoError> {
    let mut reader = TraceReader::new(bytes)?;
    reader.events().collect()
}

#[test]
fn truncation_at_every_region_is_a_clean_error() {
    let bytes = sample_bytes();
    // A spread of cut points: inside the magic, the header, early chunks,
    // mid-payload and just before the footer.
    let cuts = [
        1,
        3,
        5,
        9,
        20,
        100,
        bytes.len() / 3,
        bytes.len() / 2,
        bytes.len() - 100,
        bytes.len() - 1,
    ];
    for cut in cuts {
        let err = read_trace(&bytes[..cut]).expect_err("truncated file must not parse");
        assert!(
            matches!(
                err,
                TraceIoError::Truncated { .. } | TraceIoError::Io(_) | TraceIoError::BadMagic
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
}

#[test]
fn a_flipped_byte_in_a_chunk_body_is_caught_by_the_crc() {
    let bytes = sample_bytes();
    // Flip one byte somewhere inside an event chunk's payload (well past
    // the header, well before the footer).  The CRC must catch it and name
    // a chunk.
    let mut corrupt = bytes.clone();
    let target = bytes.len() / 2;
    corrupt[target] ^= 0x40;
    let err = read_trace(&corrupt[..]).expect_err("corrupt chunk must not parse");
    match err {
        TraceIoError::CrcMismatch { .. } => {}
        // Flipping a byte of the chunk *framing* (kind/lengths/codec) is
        // also legal damage; it must still fail cleanly.
        TraceIoError::Malformed { .. } | TraceIoError::Truncated { .. } => {}
        other => panic!("unexpected error for flipped byte: {other}"),
    }
}

#[test]
fn every_single_byte_flip_fails_cleanly_or_roundtrips_header_fields() {
    // Sweep a prefix of the file (header + first chunk): no single-byte
    // flip may panic; each either fails with a TraceIoError or — for the
    // few bytes that only change free metadata like the name — decodes.
    let bytes = sample_bytes();
    for i in 0..bytes.len().min(600) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xff;
        let _ = read_trace(&corrupt[..]); // must not panic
    }
}

#[test]
fn shard_stream_byte_flips_fail_cleanly_too() {
    // Shard sub-streams carry extra per-event framing (seq deltas, wait
    // edges); corruption there must fail as cleanly as in plain streams —
    // including seq-delta overflow, which must not panic in debug builds.
    let (shards, _) = cg_trace::partition_streaming(
        sample_trace().into_iter().map(Ok),
        &TraceMeta::default(),
        vec![Vec::new(); 2],
    )
    .expect("partition");
    let bytes = &shards[0];
    for i in 0..bytes.len().min(900) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xff;
        // Must not panic.
        let _ = TraceReader::new(&corrupt[..])
            .and_then(|mut reader| reader.shard_events().collect::<Result<Vec<_>, _>>());
    }
}

#[test]
fn unknown_future_version_is_a_clean_unsupported_error() {
    let mut bytes = sample_bytes();
    // The version is the two bytes after the 4-byte magic.
    bytes[4] = 0x2a;
    bytes[5] = 0x00;
    let err = read_trace(&bytes[..]).expect_err("future version must not parse");
    match err {
        TraceIoError::UnsupportedVersion { found } => {
            assert_eq!(found, 42);
            assert_ne!(found, FORMAT_VERSION);
            let msg = err.to_string();
            assert!(msg.contains("42"), "{msg}");
        }
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
}

#[test]
fn foreign_files_are_rejected_by_magic() {
    for junk in [
        &b"not a trace at all"[..],
        &b"PK\x03\x04zipfile"[..],
        &[0x89, b'P', b'N', b'G', 1, 2, 3][..],
    ] {
        let err = read_trace(junk).expect_err("foreign bytes must not parse");
        assert!(
            matches!(err, TraceIoError::BadMagic | TraceIoError::Truncated { .. }),
            "unexpected error {err}"
        );
    }
}

#[test]
fn data_after_the_footer_is_rejected() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(b"trailing garbage");
    let err = read_trace(&bytes[..]).expect_err("trailing data must not parse");
    assert!(
        matches!(err, TraceIoError::Malformed { .. }),
        "unexpected error {err}"
    );
    assert!(err.to_string().contains("after the footer"), "{err}");
}

#[test]
fn header_crc_catches_metadata_corruption() {
    let bytes = sample_bytes();
    // Byte 7 onward is the header payload (magic 4 + version 2 + length
    // varint ≥ 1); flip a byte inside it.
    let mut corrupt = bytes.clone();
    corrupt[8] ^= 0x01;
    let err = TraceReader::new(&corrupt[..])
        .map(|_| ())
        .expect_err("header corruption");
    assert!(
        matches!(
            err,
            TraceIoError::Malformed { .. } | TraceIoError::Truncated { .. }
        ),
        "unexpected error {err}"
    );
}
