//! The window driver every multi-instance engine runs on: the multi-NIC
//! server ([`crate::parallel`]) and the multi-node cluster
//! ([`crate::cluster`]) both step many [`SystemSim`](crate::SystemSim)s
//! window by window, and both meet once per window to settle what the
//! window produced.
//!
//! * **The window clock.** Window `k` spans `[floor_k, floor_k + q)`, and
//!   `floor_{k+1} = floor_k + q + stretch_k`, where `stretch_k` is what
//!   the boundary hook returned after window `k`. Fig 18's hook returns
//!   the host-DRAM stall the window's traffic caused; the cluster's
//!   returns zero.
//! * **Persistent workers.** A run spawns its scoped workers once. The
//!   calling thread is worker 0; with one worker nothing is spawned and
//!   nothing is allocated.
//! * **One rendezvous per window.** Every member steps window `k` on the
//!   worker that owns its chunk, and the workers hand their chunks back.
//!   The boundary hook then runs on the calling thread with exclusive
//!   access to every member, decides whether the run goes on, and the
//!   chunks go out again for window `k + 1`.
//!
//! A member's step may read only its own state and the window, and the
//! hook sees every member in member order, so a run is bit-identical for
//! any worker count.

use std::ops::{ControlFlow, Index, IndexMut};
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::thread;

use kvd_sim::SimTime;

/// One window of a run: members issue work in `[floor, horizon)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Position of the window in the run, from zero.
    pub index: u64,
    /// Issue floor: nothing in the window issues before it.
    pub floor: SimTime,
    /// Exclusive end of the window's issue range (`floor + quantum`).
    pub horizon: SimTime,
}

impl Window {
    /// A run's first window.
    pub fn first(origin: SimTime, quantum: SimTime) -> Window {
        Window {
            index: 0,
            floor: origin,
            horizon: origin + quantum,
        }
    }

    /// The window after this one, opened `stretch` past its horizon.
    pub fn next(self, stretch: SimTime) -> Window {
        let floor = self.horizon + stretch;
        Window {
            index: self.index + 1,
            floor,
            horizon: floor + (self.horizon - self.floor),
        }
    }
}

/// Every member of a run, as the boundary hook sees them: the workers'
/// chunks, handed back, indexed in member order.
pub struct Members<'a, 'm, M> {
    chunks: &'a mut [&'m mut [M]],
    /// Members per chunk.
    chunk: usize,
}

impl<'a, 'm, M> Members<'a, 'm, M> {
    /// Every member, from the consecutive chunks they were split into;
    /// all chunks but the last are the same length.
    pub fn new(chunks: &'a mut [&'m mut [M]]) -> Self {
        let chunk = chunks.first().map_or(1, |c| c.len().max(1));
        Members { chunks, chunk }
    }

    /// The members in member order.
    pub fn iter(&self) -> impl Iterator<Item = &M> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// The members in member order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut M> + use<'_, 'm, M> {
        self.chunks.iter_mut().flat_map(|c| c.iter_mut())
    }
}

impl<M> Index<usize> for Members<'_, '_, M> {
    type Output = M;

    fn index(&self, i: usize) -> &M {
        &self.chunks[i / self.chunk][i % self.chunk]
    }
}

impl<M> IndexMut<usize> for Members<'_, '_, M> {
    fn index_mut(&mut self, i: usize) -> &mut M {
        &mut self.chunks[i / self.chunk][i % self.chunk]
    }
}

/// The workers a run of `members` members gets when `requested` were
/// asked for: `0` means the machine's available parallelism, and the
/// count is clamped to `1..=members`.
fn worker_count(requested: usize, members: usize) -> usize {
    let w = if requested == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    w.clamp(1, members.max(1))
}

/// Waits for the other side of a rendezvous, yielding the core for a
/// while before sleeping: the other side usually arrives within a
/// fraction of a window, and a sleeping thread puts a wake-up on the
/// critical path of every window. `None` once the sender is gone.
fn rendezvous<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..512 {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Empty) => thread::yield_now(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

/// Runs `members` window by window from `origin` until the hook breaks,
/// and returns the last window.
///
/// Each window, `step(i, member, window)` runs once for every member `i`
/// on `workers` workers (`0` means the machine's available parallelism,
/// and there are never more workers than members); then `hook(members,
/// window)` runs on the calling thread. `Continue(stretch)` opens the
/// next window `stretch` past this one's horizon; `Break(())` ends the
/// run.
///
/// # Panics
///
/// Panics if `quantum` is zero, or if a step or the hook panics.
pub fn drive<M, S, H>(
    members: &mut [M],
    workers: usize,
    origin: SimTime,
    quantum: SimTime,
    step: S,
    mut hook: H,
) -> Window
where
    M: Send,
    S: Fn(usize, &mut M, Window) + Sync,
    H: FnMut(&mut Members<'_, '_, M>, Window) -> ControlFlow<(), SimTime>,
{
    assert!(quantum > SimTime::ZERO, "need a positive quantum");
    let n = members.len();
    let chunk = n.div_ceil(worker_count(workers, n));
    let step_chunk = |base: usize, chunk: &mut [M], w: Window| {
        for (off, member) in chunk.iter_mut().enumerate() {
            step(base + off, member, w);
        }
    };
    let mut w = Window::first(origin, quantum);
    if chunk >= n {
        loop {
            step_chunk(0, members, w);
            match hook(&mut Members::new(&mut [&mut *members]), w) {
                ControlFlow::Continue(stretch) => w = w.next(stretch),
                ControlFlow::Break(()) => return w,
            }
        }
    }
    thread::scope(|s| {
        let step_chunk = &step_chunk;
        let mut chunks: Vec<&mut [M]> = members.chunks_mut(chunk).collect();
        // One lane per spawned worker: its chunk goes out with the window
        // and comes back once stepped.
        let lanes: Vec<_> = (1..chunks.len())
            .map(|c| {
                let (to_worker, jobs) = sync_channel::<(Window, &mut [M])>(1);
                let (back, from_worker) = sync_channel(1);
                s.spawn(move || {
                    while let Some((w, mine)) = rendezvous(&jobs) {
                        step_chunk(c * chunk, mine, w);
                        if back.send(mine).is_err() {
                            return; // the calling thread is unwinding
                        }
                    }
                });
                (to_worker, from_worker)
            })
            .collect();
        loop {
            for ((to_worker, _), theirs) in lanes.iter().zip(chunks.drain(1..)) {
                to_worker.send((w, theirs)).expect("member worker alive");
            }
            step_chunk(0, chunks[0], w);
            for (_, from_worker) in &lanes {
                chunks.push(rendezvous(from_worker).expect("member worker panicked"));
            }
            match hook(&mut Members::new(&mut chunks), w) {
                ControlFlow::Continue(stretch) => w = w.next(stretch),
                ControlFlow::Break(()) => return w,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::arbiter::HostArbiter;
    use kvd_sim::{Bandwidth, HostArbiterConfig};

    fn arbiter() -> HostArbiter {
        HostArbiter::new(HostArbiterConfig {
            bandwidth: Bandwidth::from_gbytes_per_sec(6.4),
            quantum: SimTime::from_us(10),
        })
    }

    /// Drives `members` members issuing `lines` host lines each per
    /// window through `windows` windows from `origin`, charging every
    /// window's sum to `arb` and stretching by its stall; returns the
    /// floors.
    fn charged_floors(
        arb: &mut HostArbiter,
        members: usize,
        lines: u64,
        windows: u64,
        origin: SimTime,
    ) -> Vec<SimTime> {
        let mut issued = vec![0u64; members];
        let mut floors = Vec::new();
        drive(
            &mut issued,
            members,
            origin,
            arb.quantum(),
            |_, m, _| *m = lines,
            |ms, w| {
                floors.push(w.floor);
                let stall = arb.charge(ms.iter().sum());
                if w.index + 1 == windows {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(stall)
                }
            },
        );
        floors
    }

    #[test]
    fn floors_follow_the_stall_recurrence() {
        // 6.4 GB/s = 100 Mlines/s → 1000 lines per 10us window. Three
        // members × 500 lines = 1500 lines/window: needs 15us, stalls 5us,
        // so floor_k = k·(10 + 5)us.
        let us = SimTime::from_us;
        let floors = charged_floors(&mut arbiter(), 3, 500, 4, SimTime::ZERO);
        assert_eq!(floors, [us(0), us(15), us(30), us(45)]);
        // Under capacity there is never a stall: floors are k·q exactly.
        let free = charged_floors(&mut arbiter(), 3, 100, 4, SimTime::ZERO);
        assert_eq!(free, [us(0), us(10), us(20), us(30)]);
    }

    #[test]
    fn charging_each_window_matches_charging_the_arbiter_directly() {
        // Member 0 issues irregular traffic, member 1 none; the hook's
        // per-window sums must leave the arbiter exactly as charging the
        // same sequence by hand does, and each stall must stretch the
        // next window by that much.
        let traffic = [900u64, 2_000, 0, 3_500, 100, 1_000];
        let mut direct = arbiter();
        let stalls: Vec<SimTime> = traffic.iter().map(|&l| direct.charge(l)).collect();
        for workers in [1usize, 2] {
            let mut arb = arbiter();
            let mut issued = [0u64; 2];
            let mut floors = Vec::new();
            drive(
                &mut issued,
                workers,
                SimTime::ZERO,
                arb.quantum(),
                |i, m, w| *m = if i == 0 { traffic[w.index as usize] } else { 0 },
                |ms, w| {
                    floors.push(w.floor);
                    let stall = arb.charge(ms.iter().sum());
                    if w.index as usize + 1 == traffic.len() {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(stall)
                    }
                },
            );
            assert_eq!(arb.stats(), direct.stats(), "workers={workers}");
            let q = arb.quantum();
            assert!(floors
                .windows(2)
                .zip(&stalls)
                .all(|(p, &s)| p[1] == p[0] + q + s));
        }
    }

    #[test]
    fn charge_stats_accumulate_across_runs_while_the_origin_resets() {
        let us = SimTime::from_us;
        let mut arb = arbiter();
        charged_floors(&mut arb, 1, 2_000, 1, SimTime::ZERO);
        assert_eq!((arb.stats().windows, arb.stats().oversubscribed), (1, 1));
        // The next run's windows count from zero again, on a time axis
        // that starts where the caller says the clocks stand; 2 000 lines
        // need 20us of a 10us window, so window 1 opens at origin + q +
        // stall.
        let floors = charged_floors(&mut arb, 1, 2_000, 2, us(123));
        assert_eq!(floors, [us(123), us(143)]);
        assert_eq!((arb.stats().windows, arb.stats().oversubscribed), (3, 3));
    }

    #[test]
    fn the_hook_sees_every_window_in_order_after_every_member_stepped_it() {
        // Five members over workers {1, 2, 8}: chunks of 5, 3 + 2 and
        // 1 × 5. Each member logs the windows it stepped; the hook checks
        // that every member, found by its index across chunks, stepped
        // this window and no later one, then stretches irregularly.
        for workers in [1usize, 2, 8] {
            let mut members: Vec<(usize, Vec<Window>)> = (0..5).map(|i| (i, Vec::new())).collect();
            let mut seen = Vec::new();
            let last = drive(
                &mut members,
                workers,
                SimTime::from_us(7),
                SimTime::from_us(2),
                |i, (id, log), w| {
                    assert_eq!(i, *id, "step got the member's own index");
                    log.push(w);
                },
                |ms, w| {
                    for i in 0..5 {
                        assert_eq!(ms[i].0, i, "workers={workers}: member {i} out of place");
                        assert_eq!(ms[i].1.last(), Some(&w), "workers={workers}: member {i}");
                    }
                    seen.push(w);
                    if w.index == 9 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(SimTime::from_ns(100 * w.index))
                    }
                },
            );
            assert_eq!(seen.last(), Some(&last));
            assert!(seen.iter().enumerate().all(|(k, w)| w.index == k as u64));
            assert!(seen.windows(2).all(|p| p[1].floor
                == p[0].horizon + SimTime::from_ns(100 * p[0].index)
                && p[1].horizon == p[1].floor + SimTime::from_us(2)));
            for (_, log) in &members {
                assert_eq!(log, &seen, "workers={workers}");
            }
        }
    }
}
