//! Seeded lock-discipline corpus: every `//~ ERROR` line must fire and
//! nothing else. Linted as crate `serve` (not a flow-root crate, so the
//! helper `.unwrap()` calls stay out of panic-reachability's way).

use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

pub struct State {
    m1: Mutex<u32>,
    m2: Mutex<u32>,
    cv: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl State {
    // One nesting order here...
    pub fn forward(&self) {
        let a = self.m1.lock().unwrap();
        let b = self.m2.lock().unwrap(); //~ ERROR lock-discipline
        drop(b);
        drop(a);
    }

    // ...and the opposite order here: a lock-order cycle. The cycle is
    // reported once, at the witnessing inner acquisition above.
    pub fn backward(&self) {
        let b = self.m2.lock().unwrap();
        let a = self.m1.lock().unwrap();
        drop(a);
        drop(b);
    }

    // The wait releases only m2's guard; m1 stays locked for the park.
    pub fn wait_wrong(&self) {
        let a = self.m1.lock().unwrap();
        let mut b = self.m2.lock().unwrap();
        b = self.cv.wait(b).unwrap(); //~ ERROR lock-discipline
        *b += *a;
    }

    // Joining a worker with locks held: the worker may need them.
    pub fn join_under_lock(&self) {
        let g = self.m1.lock().unwrap();
        let mut pool = self.workers.lock().unwrap();
        for h in pool.drain(..) {
            let _ = h.join(); //~ ERROR lock-discipline
        }
        drop(pool);
        drop(g);
    }

    // Pinned negative: the guard is a temporary that dies at the end of
    // the drain statement — the joins below run lock-free.
    pub fn drain_then_join(&self) {
        let handles: Vec<JoinHandle<()>> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _joined = h.join();
        }
    }

    // std::sync::Mutex is not reentrant: this deadlocks immediately.
    pub fn relock(&self) {
        let a = self.m1.lock().unwrap();
        let b = self.m1.lock().unwrap(); //~ ERROR lock-discipline
        drop(b);
        drop(a);
    }

    // Blocking channel send with a lock held.
    pub fn send_under_lock(&self, tx: &std::sync::mpsc::SyncSender<u32>) {
        let a = self.m1.lock().unwrap();
        let _ = tx.send(*a); //~ ERROR lock-discipline
        drop(a);
    }

    // Blocking recv with a lock held.
    pub fn recv_under_lock(&self, rx: &std::sync::mpsc::Receiver<u32>) {
        let a = self.m1.lock().unwrap();
        let _ = rx.recv(); //~ ERROR lock-discipline
        drop(a);
    }

    // A documented protocol carries a reasoned marker.
    pub fn send_sanctioned(&self, tx: &std::sync::mpsc::Sender<u32>) {
        let a = self.m1.lock().unwrap();
        // sdp-lint: allow(lock-discipline) -- the channel is unbounded; send never blocks
        let _ = tx.send(*a);
        drop(a);
    }
}
