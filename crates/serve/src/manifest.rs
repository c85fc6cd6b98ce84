//! The checkpoint manifest: the single atomic commit point for the
//! whole shard set — one corpus file and one journal per ingest shard.
//!
//! A checkpoint replaces **2·N** artifacts — per shard, a published
//! corpus file and a rewritten journal — and no sequence of per-file
//! renames can swap them all at once. Publishing them independently
//! opens a crash window where a recovered engine sees some shards'
//! *new* corpus next to other shards' *old* journals and replays (and
//! re-compresses) trajectories the corpus already contains.
//!
//! Instead, every checkpoint writes its artifacts under a fresh
//! **generation** number — `corpus.<gen>.s<k>.press` and
//! `ingest.<gen>.s<k>.wal` for shard `k` — and then commits the whole
//! set with one atomic rename of a tiny `MANIFEST` file naming that
//! generation and the shard count. Recovery reads the manifest and
//! loads exactly the committed set; artifacts from any other
//! generation are uncommitted leftovers (a checkpoint that crashed
//! before its rename, or a superseded generation whose cleanup was
//! interrupted) and are garbage-collected. A crash at **any** byte of
//! a checkpoint therefore lands on a complete, consistent generation:
//! the old one if the rename did not happen, the new one if it did.
//!
//! The rename is the **only** commit point. An artifact is written and
//! `sync_data`ed under its final name with no staging file and no
//! rename of its own: until the manifest names its generation it is
//! garbage, which the next checkpoint's `create` truncates and open's
//! GC removes. One directory fsync after the last artifact makes every
//! new name durable before the rename; a second one after the rename
//! makes the commit survive power loss, not just process death.
//!
//! # Manifest format
//!
//! Version 2 (this build writes), 28 bytes, written via temp file +
//! rename so it is always complete:
//!
//! ```text
//! [8B magic "PRESSMFT"][u32 version=2][u64 generation][u32 shards][u32 crc32 of the first 24 bytes]
//! ```
//!
//! Any other version — including the 24-byte pre-sharding version 1,
//! which no writer in this tree has produced since sharding landed — is
//! refused as an unsupported version.

use press_store::crc32;
use press_store::io::{self as store_io, IoBackend};
use std::io;
use std::path::{Path, PathBuf};

/// Manifest file name inside the ingest directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Manifest magic.
pub const MANIFEST_MAGIC: [u8; 8] = *b"PRESSMFT";
/// Manifest format version this build writes.
pub const MANIFEST_VERSION: u32 = 2;
/// Encoded length of a version-2 manifest in bytes.
pub const MANIFEST_LEN: usize = 28;

/// The committed state a manifest names: a generation and how many
/// ingest shards its artifact set has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// The committed generation number.
    pub generation: u64,
    /// Number of ingest shards (at least 1).
    pub shards: u32,
}

/// Corpus artifact name for shard `shard` of `gen`.
pub fn corpus_shard_file_name(gen: u64, shard: u32) -> String {
    format!("corpus.{gen}.s{shard}.press")
}

/// Journal artifact name for shard `shard` of `gen`.
pub fn wal_shard_file_name(gen: u64, shard: u32) -> String {
    format!("ingest.{gen}.s{shard}.wal")
}

/// Parses a generation-stamped artifact name
/// (`corpus.<gen>.s<k>.press`, `ingest.<gen>.s<k>.wal`), returning its
/// generation and shard.
pub fn artifact_parts(name: &str) -> Option<(u64, u32)> {
    let rest = name
        .strip_prefix("corpus.")
        .and_then(|rest| rest.strip_suffix(".press"))
        .or_else(|| {
            name.strip_prefix("ingest.")
                .and_then(|rest| rest.strip_suffix(".wal"))
        })?;
    let (gen, shard) = rest.split_once(".s")?;
    Some((gen.parse().ok()?, shard.parse().ok()?))
}

/// Reads the committed manifest, `None` for a directory with no
/// manifest. A present-but-damaged manifest is `InvalidData`, never a
/// silent fresh start.
pub fn read(dir: &Path) -> io::Result<Option<Manifest>> {
    let bytes = match std::fs::read(dir.join(MANIFEST_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    // Magic and version sit at the same offsets in every version, so a
    // manifest of another version is named as such before this
    // version's length and checksum layout are assumed.
    if bytes.len() >= 12 && bytes[..8] == MANIFEST_MAGIC {
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != MANIFEST_VERSION {
            return invalid(format!(
                "unsupported manifest version {version} (this build reads version \
                 {MANIFEST_VERSION})"
            ));
        }
    }
    if bytes.len() != MANIFEST_LEN {
        return invalid(format!(
            "manifest is {} bytes, expected {MANIFEST_LEN}",
            bytes.len()
        ));
    }
    if bytes[..8] != MANIFEST_MAGIC {
        return invalid("manifest has bad magic".into());
    }
    let stored_crc = u32::from_le_bytes(bytes[24..].try_into().expect("4 bytes"));
    if crc32(&bytes[..24]) != stored_crc {
        return invalid("manifest checksum mismatch".into());
    }
    let generation = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let shards = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    if shards == 0 {
        return invalid("manifest names zero shards".into());
    }
    Ok(Some(Manifest { generation, shards }))
}

/// Atomically commits `gen` with `shards` ingest shards as the live
/// generation: temp file + sync + rename + directory fsync. After this
/// returns, recovery will load `corpus.<gen>.s<k>.press` /
/// `ingest.<gen>.s<k>.wal` for every shard `k` and GC everything else.
/// Every step — including both fsyncs — surfaces its error; a failure
/// anywhere leaves the previous manifest in force. Every write goes
/// through `io` (the real filesystem in production, a fault injector in
/// tests).
pub fn commit(io: &dyn IoBackend, dir: &Path, gen: u64, shards: u32) -> io::Result<()> {
    assert!(shards > 0, "a manifest must name at least one shard");
    let mut buf = Vec::with_capacity(MANIFEST_LEN);
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    buf.extend_from_slice(&gen.to_le_bytes());
    buf.extend_from_slice(&shards.to_le_bytes());
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    store_io::atomic_write_file(io, &dir.join(MANIFEST_FILE), &buf)
}

/// True when the directory holds any generation-stamped artifact.
pub fn has_artifacts(dir: &Path) -> io::Result<bool> {
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        if name.to_str().is_some_and(|n| artifact_parts(n).is_some()) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Removes every artifact not belonging to `keep` (uncommitted
/// leftovers of a crashed checkpoint, superseded generations whose
/// cleanup was interrupted) plus any stranded `*.tmp` staging file
/// (the manifest's atomic write stages through a sibling temp file; one
/// survives only if the writer crashed or faulted mid-stage, and it is
/// inert). Removal goes through `std::fs`, not an [`IoBackend`]: a
/// failed removal leaves an inert file and changes nothing recovery
/// reads.
pub fn gc(dir: &Path, keep: u64) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = match artifact_parts(name) {
            Some((gen, _)) => gen != keep,
            None => name.ends_with(".tmp"),
        };
        if stale {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// The committed journal path of shard `shard` — where a simulated
/// kill must tear. A directory with no manifest resolves to generation
/// 0 (a fresh engine commits generation 0 on first open).
pub fn live_shard_wal_path(dir: &Path, shard: u32) -> io::Result<PathBuf> {
    let gen = read(dir)?.map_or(0, |m| m.generation);
    Ok(dir.join(wal_shard_file_name(gen, shard)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("press-mft-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn commit_read_roundtrip_and_gc() {
        let dir = tmp_dir("roundtrip");
        assert_eq!(read(&dir).expect("read"), None);
        commit(&store_io::RealIo, &dir, 0, 1).expect("commit 0");
        assert_eq!(
            read(&dir).expect("read"),
            Some(Manifest {
                generation: 0,
                shards: 1
            })
        );
        commit(&store_io::RealIo, &dir, 7, 3).expect("commit 7");
        assert_eq!(
            read(&dir).expect("read"),
            Some(Manifest {
                generation: 7,
                shards: 3
            })
        );
        // GC keeps only the committed generation's artifacts.
        for name in [
            corpus_shard_file_name(6, 1),
            wal_shard_file_name(6, 2),
            corpus_shard_file_name(7, 0),
            wal_shard_file_name(7, 0),
            wal_shard_file_name(7, 2),
            "MANIFEST.tmp".to_string(),
            "unrelated.txt".to_string(),
        ] {
            std::fs::write(dir.join(&name), b"x").expect("write");
        }
        gc(&dir, 7).expect("gc");
        assert!(!dir.join(corpus_shard_file_name(6, 1)).exists());
        assert!(!dir.join(wal_shard_file_name(6, 2)).exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        assert!(dir.join(corpus_shard_file_name(7, 0)).exists());
        assert!(dir.join(wal_shard_file_name(7, 0)).exists());
        assert!(dir.join(wal_shard_file_name(7, 2)).exists());
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(
            live_shard_wal_path(&dir, 0).expect("live"),
            dir.join(wal_shard_file_name(7, 0))
        );
        assert_eq!(
            live_shard_wal_path(&dir, 2).expect("live"),
            dir.join(wal_shard_file_name(7, 2))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_manifest_is_an_unsupported_version() {
        let dir = tmp_dir("v1");
        // A well-formed pre-sharding manifest: 24 bytes, version 1,
        // generation 5, valid checksum.
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(&MANIFEST_MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&5u64.to_le_bytes());
        buf.extend_from_slice(&crc32(&buf).to_le_bytes());
        std::fs::write(dir.join(MANIFEST_FILE), &buf).expect("write");
        let err = read(&dir).expect_err("v1 must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported manifest version 1"),
            "{err}"
        );
        assert!(live_shard_wal_path(&dir, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_names_parse_and_reject() {
        assert_eq!(artifact_parts("corpus.7.s2.press"), Some((7, 2)));
        assert_eq!(artifact_parts("ingest.0.s11.wal"), Some((0, 11)));
        // Un-suffixed (pre-sharding) names are not artifacts.
        assert_eq!(artifact_parts("corpus.0.press"), None);
        assert_eq!(artifact_parts("ingest.42.wal"), None);
        assert_eq!(artifact_parts("corpus.press"), None);
        assert_eq!(artifact_parts("ingest.x.wal"), None);
        assert_eq!(artifact_parts("ingest.1.sx.wal"), None);
        assert_eq!(artifact_parts("MANIFEST"), None);
        assert_eq!(artifact_parts("corpus.1.press.tmp"), None);
        assert_eq!(artifact_parts("corpus.1.s0.press.tmp"), None);
    }
}
