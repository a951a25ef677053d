//! Asynchronous bounded-lookahead credit arbiter for the parallel engine.
//!
//! The lockstep predecessor ([`HostArbiter`] driven at a global barrier)
//! stepped every shard through window `k`, merged the window's traffic,
//! charged it, and only then released window `k+1` — one full barrier
//! (plus, historically, one OS thread spawn and two full-ledger
//! materializations per shard) every 8 µs of simulated time. This module
//! replaces the barrier with a conservative-time credit scheme in the
//! Chandy–Misra tradition:
//!
//! * **Publication.** A shard that finishes simulating window `w` stores
//!   its window traffic, next natural event time and drained flag into
//!   its own atomic cell and bumps the open window's publication counter
//!   — no lock, no ledger, three `u64`s.
//! * **Settlement.** Whichever publication completes the open window
//!   (real or auto) settles it: the aggregate line count is charged to
//!   the underlying [`HostArbiter`], the next window's issue floor is
//!   derived (`floor' = floor + quantum + stall` — the exact recurrence
//!   the barrier engine used), and the settled frontier is released.
//! * **Null messages.** A shard whose next event lies at or beyond the
//!   open window's horizon cannot contribute traffic to it (a batch only
//!   issues strictly before the horizon), so the settler publishes a
//!   zero on its behalf and the cascade continues without that shard's
//!   thread ever waking — the Chandy–Misra null message, derived from
//!   state the shard already published. A drained shard is likewise
//!   auto-published forever. Runs whose shards go idle or drain at
//!   different times settle long window runs in one `O(windows)`
//!   arithmetic cascade instead of `O(windows × shards)` no-op steps.
//!
//! # Why the semantic lookahead is exactly one window
//!
//! The stall oracle is non-negotiable: window `k`'s issue floor is
//! `floor_k = origin + k·q + Σ_{j<k} stall_j`, and `stall_{k-1}` is a
//! function of *every* shard's window-`k-1` traffic. A shard therefore
//! cannot know `floor_k` — and must not simulate window `k` — before all
//! peers' window `k-1` publications have settled. Any deeper overlap of
//! *busy* shards would require speculating on unsettled stalls and rolling
//! back simulator state on a miss. A worker therefore takes one window
//! of credit per shard at a time and moves on to its next shard.
//!
//! # Determinism
//!
//! Every value entering settlement is a pure function of per-shard
//! deterministic state: window traffic is a `u64` sum (commutative and
//! exact regardless of publication order), the floor recurrence is
//! integer picosecond arithmetic, and null messages depend only on the
//! published next-event times. No wall-clock interleaving can change a
//! settled `(horizon, floor)` sequence, so the engine's reports are
//! bit-identical for any worker count.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::arbiter::{ArbiterStats, HostArbiter, HostArbiterConfig};
use crate::time::SimTime;

/// What the arbiter grants a shard that asks for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Credit {
    /// Simulate window `window` over `[floor, floor + quantum)`. `stall`
    /// is the settled stall of window `window - 1`, to be folded into
    /// the shard's backpressure gauge before stepping (meaningless — and
    /// `ZERO` — for window 0).
    Step {
        /// Index of the granted window.
        window: u64,
        /// Issue floor of the window (`origin + window·q + Σ` settled
        /// stalls).
        floor: SimTime,
        /// Exclusive end of the window's issue range (`floor + quantum`).
        horizon: SimTime,
        /// Stall charged to the previous window (backpressure input).
        stall: SimTime,
    },
    /// The shard has already published the open window; the settled
    /// frontier must advance (a peer must publish) before it gets more
    /// credit. Wait via [`CreditArbiter::wait_progress`].
    Blocked,
    /// The shard's staged stream is drained; it needs no more credit.
    ShardDone,
}

/// One shard's publication cell. Only the owning worker writes it while
/// its window is open; the settler reads it (and advances `window` on the
/// shard's behalf when publishing a null message).
#[derive(Debug)]
struct ShardCell {
    /// Next window this shard will publish.
    window: AtomicU64,
    /// Next natural event time (ps); a shard whose `nat ≥ horizon`
    /// cannot issue inside the open window.
    nat: AtomicU64,
    /// Staged stream drained.
    done: AtomicBool,
}

/// The asynchronous credit issuer shared by every shard worker.
///
/// Created once per [`ParallelSystemSim`](../../kvd_core/parallel/index.html)
/// and reset per run via [`Self::begin`]; charge statistics accumulate
/// across runs exactly as the barrier arbiter's did.
#[derive(Debug)]
pub struct CreditArbiter {
    quantum: SimTime,
    n: usize,
    shards: Vec<ShardCell>,
    /// Windows fully settled (the open window's index). Release-stored
    /// by the settler after all frontier state for the open window is
    /// written; acquire-loaded by workers asking for credit.
    settled: AtomicU64,
    /// Issue floor of the open window, in ps.
    floor_ps: AtomicU64,
    /// Stall charged to the last settled window, in ps.
    prev_stall_ps: AtomicU64,
    /// Aggregate host lines published into the open window so far.
    open_lines: AtomicU64,
    /// Publications (real + null) received for the open window. The
    /// publication that completes the window settles it.
    published: AtomicUsize,
    all_done: AtomicBool,
    /// Settlement-only state; the mutex also serializes
    /// [`Self::wait_progress`] against frontier releases so wakeups are
    /// never lost.
    charge: Mutex<HostArbiter>,
    progress: Condvar,
}

impl CreditArbiter {
    /// Creates the arbiter for `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or the quantum is zero.
    pub fn new(cfg: HostArbiterConfig, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(cfg.quantum > SimTime::ZERO, "need a positive quantum");
        CreditArbiter {
            quantum: cfg.quantum,
            n: shards,
            shards: (0..shards)
                .map(|_| ShardCell {
                    window: AtomicU64::new(0),
                    nat: AtomicU64::new(0),
                    done: AtomicBool::new(false),
                })
                .collect(),
            settled: AtomicU64::new(0),
            floor_ps: AtomicU64::new(0),
            prev_stall_ps: AtomicU64::new(0),
            open_lines: AtomicU64::new(0),
            published: AtomicUsize::new(0),
            all_done: AtomicBool::new(false),
            charge: Mutex::new(HostArbiter::new(cfg)),
            progress: Condvar::new(),
        }
    }

    /// The synchronization quantum.
    pub fn quantum(&self) -> SimTime {
        self.quantum
    }

    /// Resets the frontier for a new run whose time axis starts at
    /// `origin`: window `k`'s issue floor is `origin + k·q + Σ` settled
    /// stalls. A closed-loop run passes the instant its shards' clocks
    /// stand at, so that every shard is busy from window 0 on; a run whose
    /// arrival schedule owns the time axis passes zero. Charge statistics
    /// persist across runs (matching the barrier engine).
    pub fn begin(&mut self, origin: SimTime) {
        for cell in &self.shards {
            cell.window.store(0, Ordering::Relaxed);
            cell.nat.store(0, Ordering::Relaxed);
            cell.done.store(false, Ordering::Relaxed);
        }
        self.settled.store(0, Ordering::Relaxed);
        self.floor_ps.store(origin.as_ps(), Ordering::Relaxed);
        self.prev_stall_ps.store(0, Ordering::Relaxed);
        self.open_lines.store(0, Ordering::Relaxed);
        self.published.store(0, Ordering::Relaxed);
        self.all_done.store(false, Ordering::Relaxed);
    }

    /// Asks for the shard's next executable window.
    pub fn credit(&self, shard: usize) -> Credit {
        let cell = &self.shards[shard];
        if cell.done.load(Ordering::Relaxed) {
            return Credit::ShardDone;
        }
        let settled = self.settled.load(Ordering::Acquire);
        let window = cell.window.load(Ordering::Relaxed);
        if window > settled {
            return Credit::Blocked;
        }
        // `window == settled`: the open window. Its floor/stall cannot be
        // concurrently rewritten — settling it would require this very
        // shard's publication, which has not happened yet.
        debug_assert_eq!(window, settled, "a settled window was not published");
        let floor = SimTime::from_ps(self.floor_ps.load(Ordering::Relaxed));
        let stall = SimTime::from_ps(self.prev_stall_ps.load(Ordering::Relaxed));
        Credit::Step {
            window,
            floor,
            horizon: floor + self.quantum,
            stall,
        }
    }

    /// Publishes one simulated window: the host lines it issued, the
    /// shard's next natural event time, and whether its stream drained.
    /// The publication that closes the open window settles it (and
    /// cascades through any further windows that close by null messages
    /// alone).
    pub fn publish(&self, shard: usize, lines: u64, next_event: SimTime, done: bool) {
        let cell = &self.shards[shard];
        cell.nat.store(next_event.as_ps(), Ordering::Relaxed);
        if done {
            cell.done.store(true, Ordering::Relaxed);
        }
        cell.window.fetch_add(1, Ordering::Relaxed);
        self.open_lines.fetch_add(lines, Ordering::Relaxed);
        // AcqRel: the increment's release publishes this shard's stores
        // above; its acquire (through the counter's RMW chain) makes every
        // earlier publisher's stores visible to the settler.
        if self.published.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.settle();
        }
    }

    /// Settles the closed open window and cascades: charge the aggregate,
    /// derive the next floor, auto-publish null messages for idle and
    /// drained shards, and repeat while windows keep closing without any
    /// worker's help. Runs on the publishing worker's thread.
    fn settle(&self) {
        let mut charge = self.charge.lock().expect("credit arbiter poisoned");
        let mut settled = self.settled.load(Ordering::Relaxed);
        let mut floor = SimTime::from_ps(self.floor_ps.load(Ordering::Relaxed));
        loop {
            // Charge the closed window. Exactly the barrier recurrence:
            // floor_{k+1} = (floor_k + quantum) + stall_k.
            let lines = self.open_lines.swap(0, Ordering::Relaxed);
            let stall = charge.charge(lines);
            self.prev_stall_ps.store(stall.as_ps(), Ordering::Relaxed);
            floor = floor + self.quantum + stall;
            settled += 1;
            if self.shards.iter().all(|c| c.done.load(Ordering::Relaxed)) {
                // Every shard drained inside the window just settled; the
                // run is over (the barrier engine, too, charged the
                // window in which the last shard reported done).
                self.floor_ps.store(floor.as_ps(), Ordering::Relaxed);
                self.settled.store(settled, Ordering::Release);
                self.all_done.store(true, Ordering::Release);
                self.progress.notify_all();
                return;
            }
            // Null messages for the new open window: a drained shard, or
            // one whose next event is at or beyond the horizon, cannot
            // issue a batch inside it (issue times are strictly below
            // the horizon) and is published as zero traffic on the spot.
            let horizon_ps = (floor + self.quantum).as_ps();
            let mut published = 0usize;
            for cell in &self.shards {
                if cell.window.load(Ordering::Relaxed) == settled
                    && (cell.done.load(Ordering::Relaxed)
                        || cell.nat.load(Ordering::Relaxed) >= horizon_ps)
                {
                    cell.window.store(settled + 1, Ordering::Relaxed);
                    published += 1;
                }
            }
            // No worker can publish into the new open window until the
            // settled frontier is released below, so plain stores are
            // race-free here.
            self.published.store(published, Ordering::Relaxed);
            charge.note_null_messages(published as u64);
            if published < self.n {
                self.floor_ps.store(floor.as_ps(), Ordering::Relaxed);
                self.settled.store(settled, Ordering::Release);
                self.progress.notify_all();
                return;
            }
        }
    }

    /// True once every shard has drained and the final window settled.
    pub fn all_done(&self) -> bool {
        self.all_done.load(Ordering::Acquire)
    }

    /// The settled-frontier snapshot used with [`Self::wait_progress`].
    pub fn settled(&self) -> u64 {
        self.settled.load(Ordering::Acquire)
    }

    /// Stall charged to the most recently settled window (the value the
    /// barrier engine left in every shard's pressure gauge at run end).
    pub fn last_stall(&self) -> SimTime {
        SimTime::from_ps(self.prev_stall_ps.load(Ordering::Relaxed))
    }

    /// Blocks until the settled frontier moves past `seen` (or the run
    /// completes); returns the new frontier.
    pub fn wait_progress(&self, seen: u64) -> u64 {
        let mut guard = self.charge.lock().expect("credit arbiter poisoned");
        loop {
            let now = self.settled.load(Ordering::Acquire);
            if now != seen || self.all_done.load(Ordering::Acquire) {
                return now;
            }
            guard = self.progress.wait(guard).expect("credit arbiter poisoned");
        }
    }

    /// Charge statistics (windows, oversubscription, lines, stall),
    /// accumulated across runs.
    pub fn stats(&self) -> ArbiterStats {
        self.charge.lock().expect("credit arbiter poisoned").stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Bandwidth;

    fn arbiter(n: usize, gbs: f64, quantum_us: u64) -> CreditArbiter {
        CreditArbiter::new(
            HostArbiterConfig {
                bandwidth: Bandwidth::from_gbytes_per_sec(gbs),
                quantum: SimTime::from_us(quantum_us),
            },
            n,
        )
    }

    /// Drives `n` shards with fixed per-window traffic through `windows`
    /// windows single-threadedly, returning the floors granted.
    fn run_floors(n: usize, lines: u64, windows: u64) -> Vec<SimTime> {
        let arb = arbiter(n, 6.4, 10);
        let mut floors = Vec::new();
        for w in 0..windows {
            for shard in 0..n {
                match arb.credit(shard) {
                    Credit::Step { window, floor, .. } => {
                        assert_eq!(window, w);
                        if shard == 0 {
                            floors.push(floor);
                        }
                        let done = w == windows - 1;
                        arb.publish(shard, lines, SimTime::ZERO, done);
                    }
                    other => panic!("shard {shard} window {w}: unexpected {other:?}"),
                }
            }
        }
        assert!(arb.all_done());
        floors
    }

    #[test]
    fn floors_reproduce_the_barrier_recurrence() {
        // 6.4 GB/s = 100 Mlines/s → 1000 lines per 10us window. Three
        // shards × 500 lines = 1500 lines/window: needs 15us, stalls 5us.
        // floor_k = k·(10 + 5)us after the first settlement.
        let floors = run_floors(3, 500, 4);
        assert_eq!(
            floors,
            vec![
                SimTime::ZERO,
                SimTime::from_us(15),
                SimTime::from_us(30),
                SimTime::from_us(45),
            ]
        );
        // Under capacity there is never a stall: floors are k·q exactly.
        let free = run_floors(3, 100, 4);
        assert_eq!(
            free,
            vec![
                SimTime::ZERO,
                SimTime::from_us(10),
                SimTime::from_us(20),
                SimTime::from_us(30),
            ]
        );
    }

    #[test]
    fn null_messages_cascade_through_idle_windows() {
        // Shard 1 reports its next event 35us out; shard 0 stays busy.
        // After each of shard 0's publications the settler must publish
        // nulls for shard 1, so shard 0 never blocks.
        let arb = arbiter(2, 6.4, 10);
        match arb.credit(1) {
            Credit::Step { window, .. } => {
                assert_eq!(window, 0);
                arb.publish(1, 10, SimTime::from_us(35), false);
            }
            other => panic!("unexpected {other:?}"),
        }
        for w in 0..3u64 {
            match arb.credit(0) {
                Credit::Step { window, floor, .. } => {
                    assert_eq!(window, w);
                    assert_eq!(floor, SimTime::from_us(10 * w));
                    arb.publish(0, 10, SimTime::ZERO, false);
                }
                other => panic!("window {w}: unexpected {other:?}"),
            }
        }
        // Windows 1 and 2 settled on shard 1's null messages alone; its
        // own frontier was advanced for it.
        assert_eq!(arb.settled(), 3);
        assert_eq!(arb.stats().null_messages, 2, "one per window it sat out");
        // Window 3 spans [30, 40)us: shard 1's 35us event is inside, so
        // the null-message cascade must stop and hand it real credit.
        match arb.credit(1) {
            Credit::Step { window, .. } => assert_eq!(window, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drained_shards_never_block_the_frontier() {
        let arb = arbiter(3, 6.4, 10);
        // Shards 1 and 2 drain immediately (empty streams).
        arb.publish(1, 0, SimTime::MAX, true);
        arb.publish(2, 0, SimTime::MAX, true);
        assert_eq!(arb.credit(1), Credit::ShardDone);
        for w in 0..5u64 {
            match arb.credit(0) {
                Credit::Step { window, .. } => {
                    assert_eq!(window, w);
                    arb.publish(0, 1, SimTime::ZERO, w == 4);
                }
                other => panic!("window {w}: unexpected {other:?}"),
            }
        }
        assert!(arb.all_done());
        // One settlement per window in which the last busy shard ran.
        assert_eq!(arb.stats().windows, 5);
        // Two drained shards sat out the four windows after the first.
        assert_eq!(arb.stats().null_messages, 8);
    }

    #[test]
    fn stats_match_an_equivalently_driven_barrier_arbiter() {
        let mut barrier = HostArbiter::new(HostArbiterConfig {
            bandwidth: Bandwidth::from_gbytes_per_sec(6.4),
            quantum: SimTime::from_us(10),
        });
        let traffic = [900u64, 2_000, 0, 3_500, 100, 1_000];
        for &lines in &traffic {
            barrier.charge(lines);
        }
        let arb = arbiter(2, 6.4, 10);
        for (w, &lines) in traffic.iter().enumerate() {
            let done = w == traffic.len() - 1;
            arb.publish(0, lines, SimTime::ZERO, done);
            arb.publish(1, 0, SimTime::ZERO, done);
        }
        assert!(arb.all_done());
        assert_eq!(arb.stats(), barrier.stats());
    }

    #[test]
    fn blocked_until_peers_publish() {
        let arb = arbiter(2, 6.4, 10);
        match arb.credit(0) {
            Credit::Step { .. } => arb.publish(0, 5, SimTime::ZERO, false),
            other => panic!("unexpected {other:?}"),
        }
        // Shard 0 published the open window; shard 1 (busy: nat below the
        // horizon) has not, so shard 0 is stuck until it does.
        assert_eq!(arb.credit(0), Credit::Blocked);
        match arb.credit(1) {
            Credit::Step { .. } => arb.publish(1, 5, SimTime::ZERO, false),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(arb.credit(0), Credit::Step { window: 1, .. }));
    }

    #[test]
    fn begin_resets_frontier_but_keeps_charge_stats() {
        let mut arb = arbiter(1, 6.4, 10);
        arb.publish(0, 2_000, SimTime::ZERO, true);
        assert!(arb.all_done());
        let s1 = arb.stats();
        assert_eq!(s1.windows, 1);
        assert_eq!(s1.oversubscribed, 1);
        // The next run's windows count from zero again, on a time axis
        // that starts where the caller says the clocks stand.
        let origin = SimTime::from_us(123);
        arb.begin(origin);
        assert!(!arb.all_done());
        assert_eq!(arb.settled(), 0);
        assert_eq!(
            arb.credit(0),
            Credit::Step {
                window: 0,
                floor: origin,
                horizon: origin + SimTime::from_us(10),
                stall: SimTime::ZERO,
            }
        );
        // 2 000 lines need 20us of a 10us window: window 1 opens at
        // origin + q + stall.
        arb.publish(0, 2_000, SimTime::ZERO, false);
        assert!(matches!(
            arb.credit(0),
            Credit::Step { window: 1, floor, .. } if floor == origin + SimTime::from_us(20)
        ));
        arb.publish(0, 0, SimTime::ZERO, true);
        // Stats accumulated across both runs, like the barrier arbiter's.
        assert_eq!(arb.stats().windows, 3);
        assert_eq!(arb.stats().oversubscribed, 2);
    }
}
