// Fixture: the allocation patterns the hot-loop rule must NOT flag —
// hoisted buffers, allocation outside loops, loops outside hot
// functions, and test code.

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
