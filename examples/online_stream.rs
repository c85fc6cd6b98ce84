//! Online compression of a live trajectory stream (paper §7.1.2: PRESS's
//! head-to-tail scans "can be adapted to online compression").
//!
//! A vehicle reports edges and `(d, t)` fixes as it drives; the streaming
//! SP compressor and streaming BTC emit retained elements immediately with
//! O(1) state, and the emitted streams are bit-identical to what the batch
//! compressors would produce for the completed trip.
//!
//! The final section pushes the same live feed through the crash-safe
//! ingest engine (`press-serve`), which keeps each session behind a WAL:
//! every fix is vetted, journaled, and acked, and defective fixes are
//! quarantined with typed reasons instead of corrupting the stream. Its
//! flush map-matches each closed session and compresses it with
//! `Press::compress` — the same output, since the streaming compressors
//! above equal the batch ones at every cut.
//!
//! Run with: `cargo run --release --example online_stream`

use press::core::spatial::{sp_compress, OnlineSpCompressor};
use press::core::temporal::{btc_compress, OnlineBtc};
use press::matcher::hmm::GpsSample;
use press::prelude::*;
use std::sync::Arc;

fn main() {
    let net = Arc::new(grid_network(&GridConfig {
        nx: 10,
        ny: 10,
        spacing: 150.0,
        weight_jitter: 0.15,
        seed: 77,
        ..GridConfig::default()
    }));
    let sp = Arc::new(SpTable::build(net.clone()));
    let workload = Workload::generate(
        net.clone(),
        sp.clone(),
        WorkloadConfig {
            num_trajectories: 10,
            seed: 77,
            ..WorkloadConfig::default()
        },
    );
    let record = &workload.records[0];
    let trip = record.truth_trajectory(30.0);
    println!(
        "live trip: {} edges, {} GPS fixes",
        trip.path.len(),
        trip.temporal.len()
    );

    // --- Stream the spatial side: one edge per "turn" event. -------------
    let mut sp_enc = OnlineSpCompressor::new(sp.clone());
    let mut sp_stream = Vec::new();
    for (i, &e) in trip.path.edges.iter().enumerate() {
        let emitted = sp_enc.push(e);
        if !emitted.is_empty() {
            println!("  edge #{i:>3} traversed -> emitted {emitted:?}");
        }
        sp_stream.extend(emitted);
    }
    sp_stream.extend(sp_enc.finish());
    println!(
        "spatial: {} edges in -> {} retained online",
        trip.path.len(),
        sp_stream.len()
    );
    assert_eq!(sp_stream, sp_compress(&sp, &trip.path.edges));

    // --- Stream the temporal side: one (d, t) tuple per GPS fix. ---------
    let bounds = BtcBounds::new(50.0, 20.0);
    let mut btc_enc = OnlineBtc::new(bounds);
    let mut kept = Vec::new();
    for &p in &trip.temporal.points {
        kept.extend(btc_enc.push(p));
    }
    kept.extend(btc_enc.finish());
    println!(
        "temporal: {} tuples in -> {} retained online (τ = {} m, η = {} s)",
        trip.temporal.len(),
        kept.len(),
        bounds.tsnd,
        bounds.nstd
    );
    assert_eq!(kept, btc_compress(&trip.temporal.points, bounds));

    // Error of the live-compressed temporal curve, verified post-hoc.
    let tsnd = press::core::temporal::tsnd(&trip.temporal.points, &kept);
    let nstd = press::core::temporal::nstd(&trip.temporal.points, &kept);
    println!("measured error: TSND {tsnd:.1} m (≤ τ), NSTD {nstd:.1} s (≤ η)");
    assert!(tsnd <= bounds.tsnd + 1e-6 && nstd <= bounds.nstd + 1e-6);
    println!("online and batch outputs are identical — §7.1.2 holds.");

    // --- The same feed through the crash-safe ingest engine. -------------
    // In production the fixes go through `press-serve`: push(vehicle,
    // fix) vets, journals, and acks each fix; finalize + flush runs the
    // matcher and `Press::compress` on every closed session.
    let training_paths: Vec<_> = workload.records[1..]
        .iter()
        .map(|r| r.path.clone())
        .collect();
    let press = Press::train(
        sp.clone(),
        &training_paths,
        PressConfig {
            bounds,
            ..PressConfig::default()
        },
    )
    .expect("training");
    let matcher = Arc::new(MapMatcher::new(net.clone(), MatcherConfig::default()));
    let dir = std::env::temp_dir().join(format!("press-online-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine =
        IngestEngine::open(&dir, matcher, press, IngestConfig::default()).expect("open");
    let gps = record.gps_trace(&net, 15.0, 5.0);
    let mut accepted = 0usize;
    for p in &gps.points {
        if let Ack::Accepted { .. } = engine
            .push(
                7,
                GpsSample {
                    point: p.point,
                    t: p.t,
                },
            )
            .expect("push")
        {
            accepted += 1;
        }
    }
    // A defective fix degrades into the quarantine, never a panic.
    let bad = GpsSample {
        point: Point::new(f64::NAN, 0.0),
        t: 1.0e9,
    };
    let ack = engine.push(7, bad).expect("push bad");
    println!("\ningest engine: {accepted} fixes acked + journaled; NaN fix -> {ack:?}");
    engine.finalize_all().expect("finalize");
    let pieces = engine.flush().expect("flush");
    println!("flush matched + compressed the live session into {pieces} trajectory piece(s).");
    let _ = std::fs::remove_dir_all(&dir);
}
