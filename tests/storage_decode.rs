//! Snapshot decoding against corrupt length prefixes.
//!
//! `decode_snapshot` reads untrusted bytes. A count field that claims more
//! entries than the buffer can hold must fail with `StorageError::Corrupt`
//! on the short read; it must never size an allocation from the raw count,
//! because an allocation failure aborts the whole process rather than
//! panicking. These run in the root package so the plain `cargo test` run
//! covers the decoder too.

use ve_features::{ExtractorId, FeatureVector};
use ve_storage::persist::{decode_snapshot, encode_snapshot};
use ve_storage::{FeatureStore, LabelStore, StorageError, VideoMetadataStore};
use ve_vidsim::{TimeRange, VideoId};

/// Byte offset of the single feature entry's `n_vectors` field in a snapshot
/// with no videos and no labels: magic (4) + version (1) + n_videos (4) +
/// n_labels (4) + n_features (4) + extractor (1) + vid (8).
const N_VECTORS_OFFSET: usize = 26;

/// A snapshot holding one feature entry of `vectors` three-dim vectors.
fn one_entry_snapshot(vectors: usize) -> Vec<u8> {
    let vid = VideoId(7);
    let mut features = FeatureStore::new();
    features.put(
        ExtractorId::Mvit,
        vid,
        (0..vectors)
            .map(|i| FeatureVector {
                extractor: ExtractorId::Mvit,
                vid,
                range: TimeRange::new(i as f64, i as f64 + 1.0),
                data: vec![i as f32, 0.5, -1.0],
            })
            .collect(),
    );
    encode_snapshot(&VideoMetadataStore::new(), &LabelStore::new(), &features)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn write_u32(bytes: &mut [u8], at: usize, value: u32) {
    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn snapshot_with_max_vector_count_is_corrupt_not_an_abort() {
    let mut bytes = one_entry_snapshot(2);
    assert_eq!(
        read_u32(&bytes, N_VECTORS_OFFSET),
        2,
        "layout assumption: n_vectors sits at byte {N_VECTORS_OFFSET}"
    );
    assert!(
        decode_snapshot(&bytes).is_ok(),
        "unmodified snapshot decodes"
    );

    write_u32(&mut bytes, N_VECTORS_OFFSET, u32::MAX);
    assert!(matches!(
        decode_snapshot(&bytes),
        Err(StorageError::Corrupt(_))
    ));
}

#[test]
fn every_oversized_count_field_is_corrupt() {
    let bytes = one_entry_snapshot(3);
    // n_videos, n_labels, n_features, n_vectors, and the first vector's
    // data length (after its two f64 bounds).
    for at in [5, 9, 13, N_VECTORS_OFFSET, N_VECTORS_OFFSET + 4 + 16] {
        let mut mutated = bytes.clone();
        write_u32(&mut mutated, at, u32::MAX);
        assert!(
            matches!(decode_snapshot(&mutated), Err(StorageError::Corrupt(_))),
            "count field at byte {at} must be rejected"
        );
    }
}
