//! Application-level locks.
//!
//! Real web applications guard critical sections with ad-hoc, application-
//! side synchronization (Tang et al., cited as \[5\] in the paper). WeSEER
//! does not model these — they are its main source of false positives
//! (Sec. V-D) — but the performance harness must honor them: fix f9 forces
//! serial execution of Shopizer's product pricing/commit with exactly such
//! a lock.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

/// A binary semaphore: `held` flips under the mutex, waiters park on the
/// condvar. Unlike a raw `Mutex<()>`, ownership can move across threads
/// with the guard (client threads hand work to helpers in the harness).
#[derive(Debug, Default)]
struct Sem {
    held: Mutex<bool>,
    cond: Condvar,
}

/// A registry of named application-level locks, shared across client
/// threads.
#[derive(Debug, Default, Clone)]
pub struct AppLocks {
    inner: Arc<Mutex<HashMap<String, Arc<Sem>>>>,
}

/// A held application-level lock.
pub struct AppLockGuard {
    sem: Arc<Sem>,
}

impl AppLocks {
    /// New empty registry.
    pub fn new() -> Self {
        AppLocks::default()
    }

    /// Acquire the named lock, blocking until available.
    pub fn lock(&self, name: &str) -> AppLockGuard {
        let sem = {
            let mut map = self.inner.lock();
            map.entry(name.to_string()).or_default().clone()
        };
        let mut held = sem.held.lock();
        while *held {
            sem.cond.wait(&mut held);
        }
        *held = true;
        drop(held);
        AppLockGuard { sem }
    }
}

impl Drop for AppLockGuard {
    fn drop(&mut self) {
        *self.sem.held.lock() = false;
        self.sem.cond.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn serializes_critical_sections() {
        let locks = AppLocks::new();
        let l2 = locks.clone();
        let g = locks.lock("pricing");
        let start = Instant::now();
        let h = thread::spawn(move || {
            let _g = l2.lock("pricing");
            Instant::now()
        });
        thread::sleep(Duration::from_millis(80));
        drop(g);
        let acquired_at = h.join().unwrap();
        assert!(acquired_at.duration_since(start) >= Duration::from_millis(60));
    }

    #[test]
    fn different_names_are_independent() {
        let locks = AppLocks::new();
        let _a = locks.lock("a");
        let _b = locks.lock("b"); // must not block
    }

    #[test]
    fn reacquire_after_drop() {
        let locks = AppLocks::new();
        drop(locks.lock("x"));
        drop(locks.lock("x"));
        let _g = locks.lock("x");
    }
}
