//! The admission gate — the admission-control half of the server.
//!
//! A query runs on the connection thread that read it; the gate only
//! bounds how many run at once. [`Gate::enter`] hands out a [`Slot`]
//! when fewer than `workers` queries are running, waits in arrival
//! order behind the others when they all are, and refuses *immediately*
//! (`None`) when `queue_depth` requests are already waiting — which the
//! server answers with a typed `overloaded` error. Queueing delay stays
//! bounded instead of growing without limit under overload.
//!
//! A slot is released when it drops, unwinding included, so a panicking
//! query never leaks a slot. There is no drain of its own: requests
//! waiting when the server drains still get their slot and answer.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use warptree_obs::Gauge;

/// How many run, and the ticket pair that orders the waiters.
struct State {
    running: usize,
    next: u64,
    admitted: u64,
}

impl State {
    fn waiting(&self) -> usize {
        (self.next - self.admitted) as usize
    }
}

/// A counting semaphore with a FIFO ticket queue and a bounded wait.
pub struct Gate {
    state: Mutex<State>,
    turn: Condvar,
    workers: usize,
    queue_depth: usize,
    /// The number waiting, updated on every arrival and admission.
    depth: Gauge,
}

/// One running query's place at the [`Gate`]; dropping it lets the next
/// waiter in.
pub struct Slot<'a>(&'a Gate);

impl Gate {
    /// A gate running at most `workers` queries with at most
    /// `queue_depth` waiting (each at least 1), reporting the number
    /// waiting on `depth` (`Gauge::noop()` to skip metering).
    pub fn new(workers: usize, queue_depth: usize, depth: Gauge) -> Self {
        Gate {
            state: Mutex::new(State {
                running: 0,
                next: 0,
                admitted: 0,
            }),
            turn: Condvar::new(),
            workers: workers.max(1),
            queue_depth: queue_depth.max(1),
            depth,
        }
    }

    /// The state, past a poisoned lock: every update is one step that
    /// leaves the counts valid, and [`Slot`]'s drop must not panic.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for a slot in arrival order, or returns `None` at once
    /// when every slot is taken and the queue is full.
    pub fn enter(&self) -> Option<Slot<'_>> {
        let mut st = self.lock();
        if st.running >= self.workers && st.waiting() >= self.queue_depth {
            return None;
        }
        let ticket = st.next;
        st.next += 1;
        self.depth.set(st.waiting() as f64);
        while ticket != st.admitted || st.running >= self.workers {
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.admitted += 1;
        st.running += 1;
        self.depth.set(st.waiting() as f64);
        drop(st);
        // The next ticket may fit in a slot that is still free.
        self.turn.notify_all();
        Some(Slot(self))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    /// Waits until `cond` holds (the other threads reach the gate).
    fn eventually(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "condition never held");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn waiting(gate: &Gate) -> usize {
        gate.lock().waiting()
    }

    #[test]
    fn executes_submitted_jobs() {
        // Sixteen threads through a 4-wide gate: every one runs, and
        // never more than four at once.
        let gate = Gate::new(4, 16, Gauge::noop());
        let (running, peak, done) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    let _slot = gate.enter().expect("16 fit in 4 running + 16 waiting");
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 16);
        assert!(peak.load(Ordering::SeqCst) <= 4, "ran more than `workers`");
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        // One slot held; depth 2 lets exactly two more wait, then refuses.
        let gate = Gate::new(1, 2, Gauge::noop());
        let held = gate.enter().unwrap();
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2).map(|_| s.spawn(|| gate.enter().is_some())).collect();
            eventually(|| waiting(&gate) == 2);
            assert!(gate.enter().is_none(), "a third waiter was admitted");
            drop(held);
            for w in waiters {
                assert!(w.join().unwrap(), "a waiter was refused");
            }
        });
        // Drained: a newcomer runs at once.
        assert!(gate.enter().is_some());
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let gate = Gate::new(1, 8, Gauge::noop());
        let held = gate.enter().unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            for i in 0..5 {
                let tx = tx.clone();
                let gate = &gate;
                s.spawn(move || {
                    let _slot = gate.enter().unwrap();
                    tx.send(i).unwrap();
                });
                // Arrival order is ticket order.
                eventually(|| waiting(gate) == i + 1);
            }
            drop(held);
        });
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let gate = Arc::new(Gate::new(1, 8, Gauge::noop()));
        let g = gate.clone();
        let holder = std::thread::spawn(move || {
            let _slot = g.enter().unwrap();
            panic!("query panic");
        });
        assert!(holder.join().is_err());
        std::panic::set_hook(prev);
        // The unwound slot is free again: the next waiter runs.
        let (tx, rx) = mpsc::channel();
        let g = gate.clone();
        std::thread::spawn(move || {
            let _slot = g.enter().unwrap();
            tx.send(42).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
    }

    #[test]
    fn queue_depth_gauge_tracks_length() {
        let reg = warptree_obs::MetricsRegistry::new();
        let gate = Gate::new(1, 8, reg.gauge("server.queue_depth"));
        let gauge = || reg.snapshot().gauges["server.queue_depth"];
        let held = gate.enter().unwrap();
        assert_eq!(gauge(), 0.0, "a free slot is taken without waiting");
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| drop(gate.enter().unwrap()));
            }
            eventually(|| waiting(&gate) == 2);
            assert_eq!(gauge(), 2.0);
            drop(held);
        });
        assert_eq!(gauge(), 0.0);
    }
}
