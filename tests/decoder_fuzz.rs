//! One structure-aware decoder fuzzer over every on-disk format of
//! `docs/FORMATS.md`: the PRSSTORE container as the road network, hub
//! labels, HSC model, gap-run corpus and `ingest` sidecar use it, the
//! PRESSWAL journal and the MANIFEST. A row is a small valid artifact,
//! its public open and its oracle. The one driver, [`sweep`], makes
//! every single-byte change (all 256 values up to [`SMALL`] bytes,
//! [`fixed_values`] beyond) and every truncation, twice: on the raw
//! file, where a checksum or header check must name the region hit (or
//! nothing reads the byte and the open answers clean); and inside each
//! section behind a re-sealed CRC, where the verdict is a typed error,
//! the clean answer bit for bit, or — for bytes FORMATS.md guards with
//! the CRC alone — the row's bound. Never a panic: a failing case names
//! format, mode, region, offset and value. Deterministic: no random
//! draws.

mod common;

use common::scratch;
use press::core::spatial::HscModel;
use press::core::CompressedSpatial;
use press::matcher::GpsSample;
use press::prelude::*;
use press::serve::manifest;
use press::serve::wal::{Wal, WalError, WalRecord, MAX_FRAME_LEN};
use press_store::{crc32, StoreError, StoreFile};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

/// An artifact of at most this many bytes gets every byte value.
const SMALL: usize = 512;

/// The values a byte `b` of a larger artifact is changed to: both
/// extremes, its lowest and highest bit flipped, and its neighbours.
fn fixed_values(b: u8) -> Vec<u8> {
    let mut v = vec![0, 0xFF, b ^ 1, b ^ 0x80];
    v.extend([b.wrapping_add(1), b.wrapping_sub(1)]);
    v.sort_unstable();
    v.dedup();
    v.retain(|&x| x != b);
    v
}

/// A named byte range of an artifact: a section payload, a journal
/// frame, a header field.
#[derive(Clone)]
struct Region {
    name: String,
    range: Range<usize>,
}

fn region(name: impl Into<String>, range: Range<usize>) -> Region {
    let name = name.into();
    Region { name, range }
}

/// One changed artifact, as a row's check sees it.
struct Case<'a> {
    bytes: &'a [u8],
    /// The change sits behind a valid, re-sealed CRC.
    sealed: bool,
    /// A cut to `at` bytes, not a changed byte.
    cut: bool,
    /// The region the change hit ("gap" for bytes outside every region).
    region: &'a str,
    /// File offset (raw) or payload offset (sealed) of the change.
    at: usize,
}

impl Case<'_> {
    /// The verdict on a refused open of a PRSSTORE artifact: raw, the
    /// error the container raises for the region the change hit; sealed,
    /// any typed error but a checksum mismatch (every CRC is valid).
    fn container_refusal(&self, e: &StoreError) {
        use StoreError::*;
        let named = |s: &str| matches!(e, ChecksumMismatch { section } if section == s);
        let ok = match (self.sealed, self.cut, self.region) {
            (true, ..) => !matches!(e, ChecksumMismatch { .. }),
            (false, true, _) => matches!(e, Truncated { .. }),
            (false, false, "magic") => matches!(e, BadMagic),
            (false, false, "version") => matches!(e, UnsupportedVersion { .. }),
            (false, false, "kind") => matches!(e, WrongKind { .. }),
            (false, false, "count") => matches!(e, Truncated { .. }) || named("section table"),
            (false, false, region) => named(region),
        };
        assert!(ok, "refused with {e:?}");
    }

    /// The verdict on an open that succeeded, given what it loaded
    /// re-encoded: the clean artifact, or — behind a re-sealed CRC, when
    /// `faithful` — exactly the bytes it was opened from.
    fn loaded(&self, clean: &[u8], encoded: &[u8], faithful: bool) {
        assert!(!self.cut, "a cut artifact loaded");
        let as_opened = faithful && self.sealed && encoded == self.bytes;
        assert!(encoded == clean || as_opened, "a different artifact loaded");
    }
}

/// The artifact with a section's payload replaced and its CRC sealed.
type Reseal<'a> = Box<dyn Fn(&Region, &[u8]) -> Vec<u8> + 'a>;

/// One format: its clean artifact, the regions that name a raw change,
/// the sections swept behind a re-sealed CRC, and the open with its
/// oracle, which panics on a wrong verdict.
struct Row<'a> {
    format: &'static str,
    clean: Vec<u8>,
    regions: Vec<Region>,
    sealed: Vec<Region>,
    reseal: Reseal<'a>,
    check: Box<dyn Fn(&Case) + 'a>,
}

/// Runs every single-byte change and every truncation of `row`, raw and
/// re-sealed, through its check.
fn sweep(row: &Row) {
    let run = |bytes: &[u8], sealed, cut, region: &str, at, value: Option<u8>| {
        let case = Case {
            bytes,
            sealed,
            cut,
            region,
            at,
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| (row.check)(&case))) {
            let msg = (panic.downcast_ref::<String>().cloned())
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            let mode = if sealed { "re-sealed" } else { "raw" };
            let change = value.map_or(format!("cut at {at}"), |v| format!("byte {at} = {v:#04x}"));
            panic!("{}: {mode} {region}: {change}: {msg}", row.format);
        }
    };
    let values = |b: u8| match row.clean.len() <= SMALL {
        true => (0..=255).filter(|&v| v != b).collect(),
        false => fixed_values(b),
    };
    let clean = &row.clean;
    let region_of = |at: usize| {
        let hit = row.regions.iter().find(|r| r.range.contains(&at));
        hit.map_or("gap", |r| r.name.as_str())
    };
    let mut bytes = clean.clone();
    for at in 0..clean.len() {
        for v in values(clean[at]) {
            bytes[at] = v;
            run(&bytes, false, false, region_of(at), at, Some(v));
        }
        bytes[at] = clean[at];
    }
    for cut in 0..clean.len() {
        run(&clean[..cut], false, true, region_of(cut), cut, None);
    }
    for section in &row.sealed {
        let mut payload = clean[section.range.clone()].to_vec();
        for at in 0..payload.len() {
            let b = payload[at];
            for v in values(b) {
                payload[at] = v;
                let bytes = (row.reseal)(section, &payload);
                run(&bytes, true, false, &section.name, at, Some(v));
            }
            payload[at] = b;
        }
        for cut in 0..payload.len() {
            let bytes = (row.reseal)(section, &payload[..cut]);
            run(&bytes, true, true, &section.name, cut, None);
        }
    }
}

/// A PRSSTORE row: the header fields, the section table and every
/// section payload, read off its table, and every section (or the `only`
/// ones) swept behind a CRC re-sealed by the one shared rewrite,
/// [`StoreFile::rewrite_sections`].
fn container_row<'a>(
    format: &'static str,
    clean: Vec<u8>,
    only: &[&str],
    check: impl Fn(&Case) + 'a,
) -> Row<'a> {
    let word =
        |at: usize, n: usize| (clean[at..at + n].iter().rev()).fold(0, |v, &b| v << 8 | b as usize);
    let table_end = 24 + 40 * word(16, 4);
    let mut regions = vec![
        region("magic", 0..8),
        region("version", 8..12),
        region("kind", 12..16),
        region("count", 16..20),
        region("section table", 20..table_end),
    ];
    let mut sealed = Vec::new();
    for e in (24..table_end).step_by(40) {
        let name = std::str::from_utf8(&clean[e..e + 16]).expect("UTF-8 name");
        let offset = word(e + 16, 8);
        let section = region(
            name.trim_end_matches('\0'),
            offset..offset + word(e + 24, 8),
        );
        if only.is_empty() || only.contains(&section.name.as_str()) {
            sealed.push(section.clone());
        }
        regions.push(section);
    }
    let file = StoreFile::from_bytes(clean.clone()).expect("a clean artifact parses");
    let reseal = move |section: &Region, payload: &[u8]| {
        let rewritten = file.rewrite_sections(|name, p| {
            Some(if name == section.name { payload } else { p }.to_vec())
        });
        rewritten.expect("the clean sections pass their CRCs")
    };
    Row {
        format,
        clean,
        regions,
        sealed,
        reseal: Box::new(reseal),
        check: Box::new(check),
    }
}

fn grid(n: usize, seed: u64) -> Arc<RoadNetwork> {
    let config = GridConfig {
        nx: n,
        ny: n,
        spacing: 120.0,
        weight_jitter: 0.15,
        removal_prob: 0.05,
        seed,
    };
    Arc::new(grid_network(&config))
}

/// `n` deterministic walks of up to 16 edges, never straight back.
fn walks(net: &RoadNetwork, salt: u64, n: u64) -> Vec<Vec<EdgeId>> {
    let walk = |s: u64| {
        let mut node = NodeId(((s * 7 + salt) % net.num_nodes() as u64) as u32);
        let mut path: Vec<EdgeId> = Vec::new();
        for i in 0..16 {
            let back = |e: &EdgeId| {
                path.last()
                    .is_some_and(|&p| net.edge(*e).to == net.edge(p).from)
            };
            let out: Vec<EdgeId> = net
                .out_edges(node)
                .iter()
                .filter(|e| !back(e))
                .copied()
                .collect();
            let Some(&e) = out.get(((s * 13 + i * 5 + salt) % 6) as usize % out.len().max(1))
            else {
                break;
            };
            path.push(e);
            node = net.edge(e).to;
        }
        path
    };
    (0..n).map(walk).filter(|p| p.len() >= 4).collect()
}

#[test]
fn network_decoder_fuzz() {
    let clean = grid(3, 7).to_store_bytes();
    let row = container_row("network", clean.clone(), &[], |c| {
        match RoadNetwork::from_store_bytes(c.bytes.to_vec()) {
            Err(e) => c.container_refusal(&e),
            // Node coordinates, edge endpoints and weights have no guard
            // but their ranges: a changed one loads as exactly what it says.
            Ok(loaded) => c.loaded(&clean, &loaded.to_store_bytes(), true),
        }
    });
    sweep(&row);
}

#[test]
fn hub_labels_decoder_fuzz() {
    let net = grid(3, 11);
    let clean = HubLabels::build_with_threads(net.clone(), 1).to_store_bytes();
    let path = scratch("hl").join("sp_hl.press");
    let row = container_row("hub labels", clean.clone(), &[], |c| {
        std::fs::write(&path, c.bytes).expect("write");
        let mapped = HubLabels::open_mapped(net.clone(), &path);
        match (
            HubLabels::from_store_bytes(net.clone(), c.bytes.to_vec()),
            mapped,
        ) {
            (Ok(loaded), Ok(mapped)) => {
                c.loaded(&clean, &loaded.to_store_bytes(), false);
                c.loaded(&clean, &mapped.to_store_bytes(), false);
            }
            (Ok(_), Err(m)) => panic!("the mapped open refused what the bytes load took: {m:?}"),
            // Raw, the same refusal. Behind a re-sealed CRC the mapped
            // open trusts the distances and parent chains ("Integrity
            // trade"): it may load those, and owes nothing but not to
            // panic.
            (Err(e), mapped) => {
                c.container_refusal(&e);
                assert!(
                    c.sealed || mapped.as_ref().err() == Some(&e),
                    "mapped: {mapped:?}"
                );
            }
        }
    });
    sweep(&row);
    let _ = std::fs::remove_dir_all(path.parent().expect("scratch"));
}

/// A network, a model trained on walks of it, the training paths, and a
/// corpus of held-out walks under the model, whose gaps it never saw:
/// their streams carry gap runs.
fn coded() -> (
    Arc<RoadNetwork>,
    HscModel,
    Vec<Vec<EdgeId>>,
    Vec<CompressedTrajectory>,
) {
    let net = grid(5, 23);
    let training = walks(&net, 0, 12);
    let model = HscModel::train(SpBackend::Dense.build(net.clone()), &training, 3).expect("train");
    let held_out: Vec<CompressedTrajectory> = (walks(&net, 4, 6).iter().enumerate())
        .map(|(k, p)| {
            let (t0, d) = (k as f64 * 100.0, net.path_weight(p));
            let temporal =
                TemporalSequence::new(vec![DtPoint::new(0.0, t0), DtPoint::new(d, t0 + 90.0)]);
            let spatial = model.compress(p).expect("compress");
            CompressedTrajectory {
                spatial,
                temporal: temporal.expect("temporal"),
            }
        })
        .collect();
    let runs: u64 = (held_out.iter())
        .map(|ct| model.run_cost(&ct.spatial).expect("cost").0)
        .sum();
    assert!(runs > 0, "the corpus must carry gap runs");
    (net, model, training, held_out)
}

#[test]
fn hsc_model_decoder_fuzz() {
    let (_, model, training, _) = coded();
    let clean = model.to_store_bytes();
    let coded: Vec<CompressedSpatial> = (training.iter())
        .map(|p| model.compress(p).expect("compress"))
        .collect();
    let row = container_row("hsc model", clean.clone(), &[], |c| {
        match HscModel::from_store_bytes(model.sp().clone(), c.bytes.to_vec()) {
            Err(e) => c.container_refusal(&e),
            Ok(loaded) if loaded.to_store_bytes() == clean => assert!(!c.cut, "a cut model loaded"),
            // A link or a stop fact is taken on its CRC where no check
            // can tell it from the right one: the bound is exact
            // decompression of the training paths, and compression that
            // runs. A change elsewhere that loads (θ above the Trie's
            // depth) must code the training paths as the clean model does.
            Ok(loaded) => {
                assert!(c.sealed && !c.cut, "a different model loaded");
                let taken_on_crc = ["node_link", "node_stop"].contains(&c.region);
                for (path, cs) in training.iter().zip(&coded) {
                    let bits = loaded
                        .compress(path)
                        .expect("compress under the loaded model");
                    assert!(
                        taken_on_crc || &bits == cs,
                        "the training paths code differently"
                    );
                    assert_eq!(&loaded.decompress(cs).expect("decompress"), path);
                }
            }
        }
    });
    sweep(&row);
}

#[test]
fn corpus_decoder_fuzz() {
    let (net, model, _, held_out) = coded();
    let engine = QueryEngine::new(&model);
    let clean = TrajectoryStore::to_store_bytes(&engine, &held_out, 3).expect("corpus bytes");
    let everywhere = Mbr::new(-1e9, -1e9, 1e9, 1e9);
    // `decode_all`, then per trajectory its decompression, one `whereat`
    // and one `range` over its time span.
    let answers = |store: &TrajectoryStore| {
        let each = (0..held_out.len()).map(|i| {
            let t = i as f64 * 100.0;
            let path = store.get(i).and_then(|ct| model.decompress(&ct.spatial));
            let point = store.whereat(&engine, i, t + 45.0);
            let hits = store.range(&engine, t + 10.0, t + 50.0, &everywhere);
            format!("{path:?} {point:?} {hits:?}")
        });
        (store.decode_all().ok(), each.collect::<Vec<_>>())
    };
    let want = answers(&TrajectoryStore::from_store_bytes(clean.clone()).expect("clean corpus"));
    assert!(clean.len() <= SMALL && want.0.as_ref() == Some(&held_out));
    // Re-sealed block changes that failed to decode, and that decoded as
    // other trajectories.
    let outcomes = [Cell::new(0), Cell::new(0)];
    let row = container_row("corpus", clean.clone(), &[], |c| {
        let refused = |e: PressError| match e {
            PressError::Store(e) => c.container_refusal(&e),
            e => assert!(c.sealed, "raw refusal {e:?} is not the container's"),
        };
        let store = match TrajectoryStore::from_store_bytes(c.bytes.to_vec()) {
            Ok(store) => store,
            Err(e) => return refused(e),
        };
        let got = answers(&store);
        if !c.sealed {
            // A block's CRC is checked at its first touch: only the
            // trajectories of the damaged block fail, with its checksum
            // error, and every other one answers clean.
            for (i, (g, w)) in got.1.iter().zip(&want.1).enumerate() {
                let damaged = c.region == format!("blk{}", i / 3);
                assert!(
                    g == w || damaged && g.contains("ChecksumMismatch"),
                    "{i}: {g}"
                );
            }
            return store
                .decode_all()
                .map_or_else(refused, |all| assert!(all == held_out));
        }
        if got == want {
            return;
        }
        // Record bytes the CRC alone guards read as some other
        // trajectory: counts the bytes can back, and a bounded walk. A
        // synopsis may only move what `range` prunes; `meta` loads as the
        // clean corpus or not at all.
        assert!(
            c.sealed && c.region != "meta",
            "the corpus answered differently"
        );
        let Some(all) = &got.0 else {
            return outcomes[0].set(outcomes[0].get() + 1);
        };
        assert!(!c.cut, "a cut corpus decoded");
        assert!(
            c.region != "synopsis" || all == &held_out,
            "a synopsis changed a trajectory"
        );
        outcomes[1].set(outcomes[1].get() + 1);
        let tuples: usize = all.iter().map(|ct| ct.temporal.len()).sum();
        let bits: u64 = all.iter().map(|ct| ct.spatial.bits.len_bits()).sum();
        assert!(tuples <= c.bytes.len() && bits <= 8 * c.bytes.len() as u64);
        for ct in all {
            if let Ok(edges) = model.decompress(&ct.spatial) {
                let steps = 4 * net.num_nodes() as u64 * ct.spatial.bits.len_bits();
                assert!(edges.len() as u64 <= steps, "an unbounded walk");
                net.validate_path(&edges)
                    .expect("a decoded path is connected");
            }
        }
    });
    sweep(&row);
    let [refused, other] = [outcomes[0].get(), outcomes[1].get()];
    assert!(
        refused > 0 && other > 0,
        "changes must reach the record checks and the stream reader"
    );
}

#[test]
fn journal_decoder_fuzz() {
    // Short frames mid-journal, and a 33-byte `Point` last: a damaged
    // tag there leaves a tag-sized body that fits inside the frame.
    let records = [
        WalRecord::Clock { t: 3.0 },
        WalRecord::Resume {
            vehicle: 2,
            x: 7.25,
            y: 20.0,
            t: 31.0,
        },
        WalRecord::Finalize { vehicle: 2 },
        WalRecord::FinalizeAll,
        WalRecord::Point {
            vehicle: 1,
            x: 10.0,
            y: -0.5,
            t: 30.0,
        },
    ];
    let dir = scratch("wal");
    let (path, io) = (dir.join("ingest.wal"), press_store::io::real_io());
    drop(Wal::create(&path, &records, io.clone()).expect("create"));
    let clean = std::fs::read(&path).expect("read");
    // Each frame whole, and its payload: the bytes after its length and
    // CRC.
    let (mut regions, mut frames) = (
        vec![region("magic", 0..8), region("version", 8..16)],
        vec![],
    );
    let mut off = 16;
    while off < clean.len() {
        let end =
            off + 8 + u32::from_le_bytes(clean[off..off + 4].try_into().expect("4 B")) as usize;
        regions.push(region(format!("frame {}", frames.len()), off..end));
        frames.push(region(format!("frame {}", frames.len()), off + 8..end));
        off = end;
    }
    let last = regions.last().expect("frames").range.start;
    let reseal = |frame: &Region, payload: &[u8]| {
        let header = [
            (payload.len() as u32).to_le_bytes(),
            crc32(payload).to_le_bytes(),
        ];
        let at = frame.range.clone();
        [
            &clean[..at.start - 8],
            &header.concat(),
            payload,
            &clean[at.end..],
        ]
        .concat()
    };
    // A raw change to the final frame is a torn tail, except a length
    // field no torn frame has: 0, above `MAX_FRAME_LEN`, or shorter than
    // the frame, which leaves bytes after it.
    let final_len =
        |bytes: &[u8]| u32::from_le_bytes(bytes[last..last + 4].try_into().expect("4 B"));
    let torn_final = |c: &Case| {
        let len = final_len(c.bytes);
        c.at >= last + 4 || (len > final_len(&clean) && len <= MAX_FRAME_LEN)
    };
    let check = |c: &Case| {
        std::fs::write(&path, c.bytes).expect("write");
        let mut got = Vec::new();
        let replay = Wal::open(&path, io.clone(), |rec| {
            got.push(*rec);
            Ok(())
        });
        let replay = match replay {
            Ok((_, replay)) => replay,
            // A cut is a torn tail, never an error; a raw change names
            // the header field it hit, or is corruption of a frame.
            Err(e) => {
                let named = match (c.sealed, c.region) {
                    (false, "magic") => matches!(e, WalError::BadMagic),
                    (false, "version") => matches!(e, WalError::UnsupportedVersion { .. }),
                    _ => matches!(e, WalError::Corrupt { .. }),
                };
                let raw_torn = !c.sealed && (c.cut || (c.at >= last && torn_final(c)));
                return assert!(named && !raw_torn, "refused with {e:?}");
            }
        };
        let on_disk = std::fs::metadata(&path).expect("meta").len();
        assert_eq!(on_disk, replay.valid_len, "torn bytes left behind");
        let got = &got[..];
        if c.sealed {
            // A re-sealed payload that decodes changes its own record, and
            // only that: record values have no guard but the CRC.
            let k = frames
                .iter()
                .position(|f| f.name == c.region)
                .expect("a frame");
            let others_kept = (0..got.len()).all(|i| i == k || got[i] == records[i]);
            assert!(got.len() == records.len() && others_kept, "{got:?}");
        } else if c.cut {
            // Exactly the frames the cut left whole.
            let whole = frames.iter().take_while(|f| f.range.end <= c.at).count();
            assert_eq!(got, &records[..whole]);
        } else if c.at >= last {
            assert!(torn_final(c), "a malformed final frame replayed");
            assert_eq!(got, &records[..records.len() - 1], "not a torn tail");
        } else {
            assert_eq!(got, records, "acked records dropped or changed");
        }
    };
    let row = Row {
        format: "journal",
        clean: clean.clone(),
        regions,
        sealed: frames.clone(),
        reseal: Box::new(reseal),
        check: Box::new(check),
    };
    sweep(&row);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_decoder_fuzz() {
    let dir = scratch("manifest");
    manifest::commit(&press::serve::RealIo, &dir, 7, 3).expect("commit");
    let clean = std::fs::read(dir.join(manifest::MANIFEST_FILE)).expect("read");
    let field = |b: &[u8], r: Range<usize>| b[r].iter().rev().fold(0u64, |v, &x| v << 8 | x as u64);
    let check = |c: &Case| {
        std::fs::write(dir.join(manifest::MANIFEST_FILE), c.bytes).expect("write");
        match manifest::read(&dir) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
            // Generation and shard count have no guard but the CRC.
            // Magic and version (bytes 0..12) are checked, so only a
            // re-sealed change to the fields after them can load.
            Ok(m) => {
                let unguarded = c.sealed && !c.cut && c.at >= 12;
                assert!(unguarded, "a damaged manifest read as {m:?}");
                let m = m.expect("a manifest is present");
                let said = (field(c.bytes, 12..20), field(c.bytes, 20..24));
                assert!(
                    m.shards > 0 && (m.generation, m.shards as u64) == said,
                    "{m:?}"
                );
            }
        }
    };
    let row = Row {
        format: "manifest",
        clean: clean.clone(),
        regions: vec![region("body", 0..24)],
        sealed: vec![region("body", 0..24)],
        reseal: Box::new(|_, payload| [payload, &crc32(payload).to_le_bytes()].concat()),
        check: Box::new(check),
    };
    sweep(&row);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_sidecar_decoder_fuzz() {
    let (net, model, training, _) = coded();
    let press = Press::with_model(Arc::new(model), PressConfig::default());
    let matcher = Arc::new(MapMatcher::new(net.clone(), MatcherConfig::default()));
    let config = IngestConfig {
        idle_timeout: 0.0,
        max_session_points: 0,
        block_size: 2,
        threads: 1,
        ..IngestConfig::default()
    };
    let open = |dir: &Path| {
        let press = press.reconfigured(press.config());
        IngestEngine::open(dir, matcher.clone(), press, config)
    };
    // Four vehicles drive training walks at 10 m/s, a fix every 4 s;
    // finalized, flushed and checkpointed.
    let dir = scratch("ingest");
    let mut engine = open(&dir).expect("open");
    for (v, path) in training.iter().take(4).enumerate() {
        let mut along = 0.0;
        for edge in path.iter().map(|&e| net.edge(e)) {
            let (a, b) = (net.node(edge.from).point, net.node(edge.to).point);
            for k in 0..(edge.weight / 40.0).ceil() as usize {
                let f = 40.0 * k as f64 / edge.weight;
                let point = Point::new(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y));
                let t = (along + 40.0 * k as f64) / 10.0 + v as f64 * 0.5;
                engine.push(v as u64, GpsSample { point, t }).expect("push");
            }
            along += edge.weight;
        }
    }
    engine.finalize_all().expect("finalize_all");
    engine.flush().expect("flush");
    engine.checkpoint().expect("checkpoint");
    let corpus = engine.shard_corpus_path(0);
    drop(engine);
    let clean = std::fs::read(&corpus).expect("corpus bytes");
    let reopened = open(&dir).expect("reopen");
    let want = (reopened.finished(), *reopened.recovery());
    drop(reopened);
    assert!(want.0.len() >= 2, "the checkpoint holds trajectories");
    let row = container_row("ingest sidecar", clean.clone(), &["ingest"], |c| {
        std::fs::write(&corpus, c.bytes).expect("write corpus");
        match open(&dir) {
            Err(ServeError::Press(PressError::Store(e))) => c.container_refusal(&e),
            Err(e) => assert!(c.sealed, "raw refusal {e:?} is not the container's"),
            Ok(engine) => {
                assert!(!c.cut, "a cut sidecar loaded");
                let got = (engine.finished(), *engine.recovery());
                if got != want {
                    // Vehicle ids and segment numbers have no guard but
                    // the CRC: they may reorder the corpus, never change
                    // a trajectory or what the recovery found.
                    assert!(c.sealed && got.1 == want.1, "recovered differently");
                    let mut left = got.0.clone();
                    for ct in &want.0 {
                        let k = left
                            .iter()
                            .position(|g| g == ct)
                            .expect("a trajectory changed");
                        left.swap_remove(k);
                    }
                    assert!(left.is_empty());
                }
            }
        }
    });
    sweep(&row);
    let _ = std::fs::remove_dir_all(&dir);
}
