//! Fixture tests of the hot-loop allocation scan engine that
//! `tests/static_checks.rs` runs over the real tree: a known-bad snippet
//! must fire once per allocation site, a known-good one must stay clean,
//! and the scan must keep to `crates/core` and `crates/mem`.

#[path = "../../../tests/hot_loop_scan.rs"]
mod hot_loop_scan;

use hot_loop_scan::hot_loop_allocations;

/// Per-iteration allocation inside the loops of two hot functions:
/// every marked site must fire.
const BAD: &str = r#"
pub fn advance(&mut self, now: u64) {
    for lane in 0..self.lanes {
        let scratch: Vec<u64> = Vec::new(); // fires: constructor per iteration
        let label = format!("lane-{lane}"); // fires: format! per iteration
        self.observe(scratch, label);
    }
    let mut i = 0;
    while i < now {
        let copy = self.pending.to_vec(); // fires: .to_vec() per iteration
        self.consume(copy);
        i += 1;
    }
}

pub fn issue_window(&mut self) {
    loop {
        let boxed = Box::new(self.head); // fires: Box::new per iteration
        if self.push(boxed) {
            break;
        }
    }
}
"#;

/// What the scan must not flag: hoisted buffers, allocation outside
/// loops, loops outside hot functions, and test code.
const GOOD: &str = r#"
pub fn advance(&mut self, now: u64) {
    // Hoisted before the loop: allocate once, reuse per iteration.
    let mut scratch: Vec<u64> = Vec::with_capacity(self.lanes);
    for lane in 0..self.lanes {
        scratch.clear();
        scratch.push(lane);
        self.observe(&scratch);
    }
    while self.clock < now {
        self.clock += 1;
    }
    // Allocated once after the loop, not per iteration.
    let report = format!("stall at {}", self.clock);
    self.maybe_log(report);
}

pub fn summarise(&self) -> Vec<String> {
    // Not a hot function: allocation in this loop is fine.
    let mut rows = Vec::new();
    for lane in 0..self.lanes {
        rows.push(format!("lane {lane}"));
    }
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_helper_may_allocate() {
        for i in 0..4 {
            let v = vec![i];
            assert_eq!(v.len(), 1);
        }
    }
}
"#;

#[test]
fn hot_loop_alloc_bad_fires_per_site() {
    let scan = hot_loop_allocations("crates/mem/src/cache.rs", BAD);
    assert_eq!((scan.hot_fns, scan.loops), (2, 3), "{scan:?}");
    assert_eq!(
        scan.sites,
        [
            "crates/mem/src/cache.rs:4: `Vec::new`",
            "crates/mem/src/cache.rs:5: `format!`",
            "crates/mem/src/cache.rs:10: `.to_vec()`",
            "crates/mem/src/cache.rs:18: `Box::new`",
        ],
        "one finding per allocation site, naming the expression"
    );
}

#[test]
fn hot_loop_alloc_good_is_clean() {
    let scan = hot_loop_allocations("crates/core/src/controller.rs", GOOD);
    assert_eq!((scan.hot_fns, scan.loops), (1, 2), "{scan:?}");
    assert!(scan.sites.is_empty(), "{:?}", scan.sites);
}

#[test]
fn hot_loop_alloc_ignored_outside_core_and_mem() {
    for path in ["crates/sim/src/sweep.rs", "crates/bench/src/bin/perf.rs"] {
        let scan = hot_loop_allocations(path, BAD);
        assert_eq!((scan.hot_fns, scan.sites.len()), (0, 0), "{path}: {scan:?}");
    }
}
