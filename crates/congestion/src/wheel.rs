//! Carousel-style hashed timing wheel (Saeed et al., SIGCOMM 2017).
//!
//! eRPC uses Carousel's single-queue shaper as its rate limiter (§5.2.1):
//! every paced packet is stamped with a transmission deadline and inserted
//! into a wheel of time slots; the event loop *reaps* due slots each
//! iteration. Insertion and reaping are O(1) amortized regardless of the
//! number of sessions, which is what makes software pacing of thousands of
//! sessions feasible.
//!
//! Carousel correctness requirement (paper §4.2, noted in eRPC App. C):
//! deadlines must lie within a bounded horizon of "now"; we clamp further
//! deadlines to the horizon (they re-enter the wheel if still future when
//! reaped — "re-insertion", as Carousel does for slow flows).

use std::collections::VecDeque;

/// A timing wheel holding entries of type `T`.
///
/// ```
/// use erpc_congestion::TimingWheel;
/// let mut wheel = TimingWheel::new(64, 100, 0); // 64 slots × 100 ns
/// wheel.insert(250, "pkt");
/// let mut out = Vec::new();
/// wheel.reap(200, |p| out.push(p));
/// assert!(out.is_empty());        // not due yet
/// wheel.reap(300, |p| out.push(p));
/// assert_eq!(out, vec!["pkt"]);   // released at its deadline
/// ```
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Built on the first `insert`: a wheel that never paces (every
    /// bypassed session's) holds no slot table.
    slots: Vec<VecDeque<(u64, T)>>,
    num_slots: usize,
    /// Slot width in nanoseconds.
    granularity_ns: u64,
    /// Absolute time of the cursor slot's left edge.
    cursor_time_ns: u64,
    cursor: usize,
    len: usize,
    /// Slot-by-slot cursor advances, for the O(slots) regression test.
    #[cfg(test)]
    advances: u64,
}

impl<T> TimingWheel<T> {
    /// A wheel of `num_slots` slots, each `granularity_ns` wide. The
    /// horizon (max schedulable distance) is `num_slots * granularity_ns`.
    pub fn new(num_slots: usize, granularity_ns: u64, start_ns: u64) -> Self {
        assert!(num_slots >= 2 && granularity_ns > 0);
        Self {
            slots: Vec::new(),
            num_slots,
            granularity_ns,
            cursor_time_ns: start_ns,
            cursor: 0,
            len: 0,
            #[cfg(test)]
            advances: 0,
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scheduling horizon in nanoseconds.
    pub fn horizon_ns(&self) -> u64 {
        self.num_slots as u64 * self.granularity_ns
    }

    /// Insert `item` to be released at `deadline_ns`. Deadlines in the past
    /// go into the cursor slot (released on the next reap); deadlines past
    /// the horizon are clamped to the farthest slot and re-inserted upon
    /// reaping if still premature.
    pub fn insert(&mut self, deadline_ns: u64, item: T) {
        if self.slots.is_empty() {
            self.slots = (0..self.num_slots).map(|_| VecDeque::new()).collect();
        }
        let dist = deadline_ns.saturating_sub(self.cursor_time_ns) / self.granularity_ns;
        // Clamp: the farthest distinct slot is num_slots - 1 ahead.
        let dist = (dist as usize).min(self.num_slots - 1);
        let idx = (self.cursor + dist) % self.num_slots;
        self.slots[idx].push_back((deadline_ns, item));
        self.len += 1;
    }

    /// Release every entry whose deadline is ≤ `now_ns`, in slot order,
    /// invoking `f` for each. Entries found early (clamped by the horizon)
    /// are re-inserted rather than released.
    ///
    /// Cost is O(slots + entries), never O(idle time): an empty wheel
    /// jumps its cursor, and of a gap longer than the horizon only the
    /// last revolution is walked.
    pub fn reap(&mut self, now_ns: u64, mut f: impl FnMut(T)) {
        let n = self.num_slots as u64;
        let mut steps = now_ns.saturating_sub(self.cursor_time_ns) / self.granularity_ns;
        if steps > n {
            // Every slot is overdue, so one revolution meets every entry:
            // what is due leaves in the same slot order the full walk
            // would give, and what is not was clamped by the horizon and
            // is re-inserted against the cursor's time. Skip the time
            // before that revolution; the cursor's slot stays.
            self.cursor_time_ns += (steps - n) * self.granularity_ns;
            steps = n;
        }
        while steps > 0 && self.len > 0 {
            // Drain the cursor slot entirely before advancing.
            self.drain_cursor(now_ns, &mut f);
            self.cursor = (self.cursor + 1) % self.num_slots;
            self.cursor_time_ns += self.granularity_ns;
            steps -= 1;
            #[cfg(test)]
            {
                self.advances += 1;
            }
        }
        // Nothing queued: the remaining slots are empty, jump over them.
        self.cursor = ((self.cursor as u64 + steps) % n) as usize;
        self.cursor_time_ns += steps * self.granularity_ns;
        // Partial: release due entries in the current slot.
        self.drain_cursor(now_ns, &mut f);
    }

    fn drain_cursor(&mut self, now_ns: u64, f: &mut impl FnMut(T)) {
        if self.len == 0 {
            return;
        }
        let slot_idx = self.cursor;
        let mut requeue: Vec<(u64, T)> = Vec::new();
        while let Some((deadline, item)) = self.slots[slot_idx].pop_front() {
            if deadline <= now_ns {
                self.len -= 1;
                f(item);
            } else if deadline < self.cursor_time_ns + self.granularity_ns {
                // Due within this slot but not yet: keep (front order kept
                // close enough; Carousel tolerates intra-slot reordering).
                requeue.push((deadline, item));
            } else {
                // Was clamped by the horizon: push outward again.
                self.len -= 1;
                requeue.push((deadline, item));
            }
        }
        for (deadline, item) in requeue {
            if deadline < self.cursor_time_ns + self.granularity_ns {
                self.slots[slot_idx].push_back((deadline, item));
            } else {
                self.insert(deadline, item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        w.reap(now, |x| out.push(x));
        out
    }

    #[test]
    fn releases_only_due_entries() {
        let mut w = TimingWheel::new(16, 100, 0);
        w.insert(150, 1);
        w.insert(450, 2);
        w.insert(50, 3);
        assert_eq!(drain(&mut w, 100), vec![3]);
        assert_eq!(drain(&mut w, 200), vec![1]);
        assert_eq!(drain(&mut w, 400), Vec::<u32>::new());
        assert_eq!(drain(&mut w, 500), vec![2]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadlines_release_immediately() {
        let mut w = TimingWheel::new(8, 100, 1_000);
        w.insert(10, 7); // far in the past
        assert_eq!(drain(&mut w, 1_000), vec![7]);
    }

    #[test]
    fn beyond_horizon_clamps_and_reinserts() {
        let mut w = TimingWheel::new(4, 100, 0); // horizon = 400 ns
        w.insert(5_000, 9);
        // Reap up to just past the clamped slot: must NOT release.
        let out = drain(&mut w, 400);
        assert!(out.is_empty());
        assert_eq!(w.len(), 1);
        // Eventually releases at its true deadline.
        assert_eq!(drain(&mut w, 5_000), vec![9]);
    }

    #[test]
    fn slot_order_preserved_for_same_deadline() {
        let mut w = TimingWheel::new(8, 100, 0);
        for i in 0..5 {
            w.insert(250, i);
        }
        assert_eq!(drain(&mut w, 300), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interleaved_insert_reap() {
        let mut w = TimingWheel::new(32, 10, 0);
        let mut released = Vec::new();
        let mut now = 0;
        for i in 0..100u32 {
            now += 7;
            w.insert(now + 35, i);
            w.reap(now, |x| released.push(x));
        }
        w.reap(now + 1_000, |x| released.push(x));
        assert_eq!(released.len(), 100);
        // Released in deadline order because insert deadlines are monotone.
        assert!(released.windows(2).all(|p| p[0] < p[1]));
        assert!(w.is_empty());
    }

    #[test]
    fn reap_after_long_idle_is_bounded_by_slots() {
        // The pacer's shape: 200 ns slots, first paced packet after 4 s
        // of idle. The walk used to visit all 20 M idle slots.
        let idle = 4_000_000_000u64;
        let mut w = TimingWheel::new(64, 200, 0);
        w.insert(idle + 500, 1u32);
        assert_eq!(drain(&mut w, idle + 400), Vec::<u32>::new());
        assert_eq!(drain(&mut w, idle + 500), vec![1]);
        assert!(w.is_empty());
        assert!(w.advances <= 64, "{} advances", w.advances);
        // Empty wheel, another idle period: a pure jump.
        let before = w.advances;
        assert_eq!(drain(&mut w, 2 * idle), Vec::<u32>::new());
        assert_eq!(w.advances, before);
        // Entries straddling a gap longer than the horizon: due ones
        // leave in slot order, the premature one survives the jump.
        w.insert(2 * idle + 300, 2);
        w.insert(2 * idle + 100, 3);
        w.insert(3 * idle + 1_000, 4);
        let before = w.advances;
        assert_eq!(drain(&mut w, 3 * idle), vec![3, 2]);
        assert!(w.advances - before <= 64);
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, 3 * idle + 1_000), vec![4]);
    }

    #[test]
    fn slot_table_is_built_on_first_insert() {
        let mut w = TimingWheel::new(4096, 200, 0);
        assert_eq!(w.horizon_ns(), 4096 * 200);
        // Reaping a never-used wheel moves its cursor and allocates nothing.
        assert_eq!(drain(&mut w, 1_000_000), Vec::<u32>::new());
        assert!(w.slots.is_empty());
        w.insert(1_000_100, 1);
        assert_eq!(w.slots.len(), 4096);
        assert_eq!(w.horizon_ns(), 4096 * 200);
        assert_eq!(drain(&mut w, 1_000_000), Vec::<u32>::new());
        assert_eq!(drain(&mut w, 1_000_200), vec![1]);
    }

    #[test]
    fn len_tracks_inserts_and_releases() {
        let mut w = TimingWheel::new(8, 100, 0);
        w.insert(100, 1);
        w.insert(200, 2);
        assert_eq!(w.len(), 2);
        drain(&mut w, 150);
        assert_eq!(w.len(), 1);
        drain(&mut w, 10_000);
        assert_eq!(w.len(), 0);
    }
}
