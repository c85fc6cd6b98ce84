//! The cold opens map what they read: `RoadNetwork::load_from` and
//! `HscModel::load_from` make no single allocation as large as the file
//! they open, which a whole-file read into memory would. A counting global
//! allocator records the largest request of the thread that armed it, so
//! this binary holds one test.

use press::core::spatial::HscModel;
use press::network::{dijkstra, grid_network, GridConfig, RoadNetwork, SpProvider};
use press::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// The system allocator, recording the largest request of an armed thread.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        LARGEST.fetch_max(size, Relaxed);
    }
}

// SAFETY: every call goes to `System` unchanged; the bookkeeping
// allocates nothing (a const thread-local and an atomic). The default
// `alloc_zeroed` calls `alloc`, so it is counted too.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.load(Relaxed))
}

#[test]
fn cold_opens_allocate_less_than_the_file_they_open() {
    let net = Arc::new(grid_network(&GridConfig {
        nx: 24,
        ny: 24,
        spacing: 150.0,
        weight_jitter: 0.15,
        removal_prob: 0.02,
        seed: 5,
    }));
    let sp: Arc<dyn SpProvider> = Arc::new(HubLabels::build(net.clone()));
    let config = WorkloadConfig {
        num_trajectories: 400,
        seed: 5,
        min_trip_edges: 20,
        ..WorkloadConfig::default()
    };
    // The model's per-node tables come close to its file (a 32 B rectangle
    // per trie node against ~31 B of records per node on disk); long trips
    // give it long link chains, which only the file holds, and keep the two
    // apart (~18% on this fixture; the network's margin is ~21%).
    let workload = Workload::generate(net.clone(), sp.clone(), config);
    let trips: Vec<_> = workload.records.iter().map(|r| r.path.clone()).collect();
    // Whole shortest paths as training walks: nearly every depth-2 node
    // then carries a stop fact beside its link, and the `SPend` index
    // must size its fact list for both at once.
    let n = net.num_nodes() as u32;
    let whole: Vec<Vec<EdgeId>> = (0..300u32)
        .filter_map(|i| {
            dijkstra(&net, NodeId(i * 7 % n)).edge_path_to(&net, NodeId((i * 13 + 5) % n))
        })
        .filter(|p| !p.is_empty())
        .collect();

    let dir = std::env::temp_dir().join(format!("press-cold-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let net_path = dir.join("network.press");
    net.save_to(&net_path).expect("save network");
    let (loaded, net_largest) = largest_allocation(|| RoadNetwork::load_from(&net_path));
    assert_eq!(loaded.expect("load network").num_edges(), net.num_edges());
    let mut opened = vec![(net_path, net_largest)];
    for (name, training) in [("trips", trips), ("whole", whole)] {
        let model = HscModel::train(sp.clone(), &training, 3).expect("train");
        let model_path = dir.join(format!("hsc-{name}.press"));
        model.save_to(&model_path).expect("save model");
        let (loaded, largest) = largest_allocation(|| HscModel::load_from(sp.clone(), &model_path));
        assert!(loaded.expect("load model").to_store_bytes() == model.to_store_bytes());
        opened.push((model_path, largest));
    }
    for (path, largest) in opened {
        let file = std::fs::metadata(&path).expect("metadata").len() as usize;
        let what = path.display();
        assert!(largest < file, "{what}: {largest} B at once, file {file} B");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
