//! No journal-syncer thread outlives its engine. The check counts the
//! process's threads, so it is the only test in its binary: the test
//! harness runs the tests of one binary on parallel threads.
#![cfg(target_os = "linux")]

mod common;

use common::{config, fixture, stream, test_dir};
use press_serve::{DurabilityPolicy, IngestEngine};
use std::time::{Duration, Instant};

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// `Threads:` once it reads `expected`, or after about two seconds. A
/// joined thread can stay counted for a moment after its join returns,
/// so a read straight after one may be one too many; a thread that
/// really lives on still reads as one too many after the wait.
fn threads_settled_at(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let n = threads();
        if n == expected || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// An engine spawns its one syncer thread at the first group-commit
/// trigger — none for an engine that never triggers — and joins it on
/// drop, however many engines come and go.
#[test]
fn overlapped_syncer_threads_end_with_their_engines() {
    let f = fixture();
    let events = stream(4, 6);
    let start = threads();
    for round in 0..20 {
        let dir = test_dir(&format!("threads-{round}"));
        let policy = if round % 2 == 0 {
            DurabilityPolicy::per_push()
        } else {
            DurabilityPolicy::manual()
        };
        let mut engine = IngestEngine::open(&dir, f.matcher.clone(), f.press(), config(2, policy))
            .expect("open");
        assert_eq!(
            threads_settled_at(start),
            start,
            "round {round}: an open spawns nothing"
        );
        for &(v, s) in &events {
            engine.push(v, s).expect("push");
        }
        let syncers = usize::from(policy.sync_bytes > 0);
        assert_eq!(
            threads_settled_at(start + syncers),
            start + syncers,
            "round {round}: one syncer per engine"
        );
        drop(engine);
        assert_eq!(
            threads_settled_at(start),
            start,
            "round {round}: the syncer ended with its engine"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
