//! Readiness-driven connection machinery for `pncheckd`.
//!
//! The original daemon spawned one thread per TCP connection and turned
//! everything over [`ServerConfig::max_connections`] away with a `busy`
//! error. This module holds the std-only building blocks the rewritten
//! accept loop composes instead:
//!
//! * [`TickPoller`] — the loop blocks here between ticks and worker
//!   threads wake it when a reply is ready. It is a `Mutex` + `Condvar`
//!   pair: portable, `forbid(unsafe_code)`-clean, and deliberately the
//!   *only* platform-specific seam — an epoll/kqueue backend would
//!   offer the same two methods and replace the fixed tick with true
//!   socket readiness.
//! * [`FairQueue`] — a per-client request queue drained round-robin by
//!   the worker pool, so one chatty client cannot starve the rest.
//!   Each client is bounded by a quota over its queued **plus**
//!   in-flight requests; pushing past it is a [`PushError::QuotaExceeded`]
//!   the server answers with a `quota-exceeded` error (the connection
//!   survives). The queue also answers "does this client have anything
//!   queued or in flight?" — the question the idle reaper must ask
//!   before closing a connection, because a connection waiting on a
//!   slow analysis is *busy*, not idle.
//! * [`LineFramer`] — incremental newline framing over arbitrary read
//!   chunks, for the event loop's non-blocking sockets and for stdio
//!   alike: an oversized line is discarded through its newline and
//!   surfaces as one [`Frame::TooLong`], and the connection stays
//!   request-aligned.
//!
//! The connection code that composes them lives in [`crate::server`].
//! The deterministic simulation harness ([`crate::sim`]) runs that same
//! code — framing, admission, quota, output buffers, idle reaping —
//! over scripted in-memory streams on a virtual clock, in place of TCP
//! sockets and this poller.
//!
//! [`ServerConfig::max_connections`]: crate::server::ServerConfig::max_connections

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------
// Poller.
// ---------------------------------------------------------------------

/// Blocks the event loop between ticks and lets other threads wake it:
/// a mutex-guarded flag and a condvar.
///
/// Without `unsafe` there is no `epoll`/`kqueue`, so socket readiness
/// is approximated by a short tick — the loop probes every socket with
/// non-blocking reads each time `wait` returns. Replies still flush
/// with low latency because workers [`wake`](TickPoller::wake) the loop
/// the moment one is ready. Wake-ups are level-style: a `wake` with no
/// waiter pending makes the *next* [`wait`](TickPoller::wait) return
/// immediately, so a completion can never be lost between ticks.
#[derive(Debug, Default)]
pub struct TickPoller {
    woken: Mutex<bool>,
    cond: Condvar,
}

impl TickPoller {
    /// Blocks until woken or until `timeout` elapses. Returns `true`
    /// when a wake-up was consumed.
    pub fn wait(&self, timeout: Duration) -> bool {
        let guard = self.woken.lock().unwrap_or_else(|e| e.into_inner());
        let (mut woken, _) = self
            .cond
            .wait_timeout_while(guard, timeout, |woken| !*woken)
            .unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *woken)
    }

    /// Wakes the current (or next) [`wait`](TickPoller::wait).
    pub fn wake(&self) {
        *self.woken.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cond.notify_one();
    }
}

// ---------------------------------------------------------------------
// Fair per-client queue.
// ---------------------------------------------------------------------

/// Why [`FairQueue::push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The client already has `quota` requests queued or in flight.
    QuotaExceeded,
}

#[derive(Debug)]
struct ClientQueue<T> {
    queued: VecDeque<T>,
    inflight: usize,
}

/// A round-robin queue of per-client work items.
///
/// Workers [`pop`](FairQueue::pop) one item per ready client in
/// rotation, so a client that pipelines 100 requests shares the pool
/// evenly with one that sends a single request. An item stays counted
/// against its client — as *in flight* — from `pop` until the event
/// loop collects the finished reply and calls
/// [`complete`](FairQueue::complete).
#[derive(Debug)]
pub struct FairQueue<T> {
    clients: HashMap<u64, ClientQueue<T>>,
    /// Clients with at least one queued item, in round-robin order.
    ready: VecDeque<u64>,
    quota: usize,
    queued_total: usize,
    inflight_total: usize,
}

impl<T> FairQueue<T> {
    /// An empty queue where each client may have at most `quota`
    /// requests queued + in flight (a quota of 0 is treated as 1).
    pub fn new(quota: usize) -> Self {
        FairQueue {
            clients: HashMap::new(),
            ready: VecDeque::new(),
            quota: quota.max(1),
            queued_total: 0,
            inflight_total: 0,
        }
    }

    /// Enqueues `item` for `client`, unless the client is at quota.
    pub fn push(&mut self, client: u64, item: T) -> Result<(), PushError> {
        let entry = self
            .clients
            .entry(client)
            .or_insert_with(|| ClientQueue { queued: VecDeque::new(), inflight: 0 });
        if entry.queued.len() + entry.inflight >= self.quota {
            return Err(PushError::QuotaExceeded);
        }
        entry.queued.push_back(item);
        self.queued_total += 1;
        if entry.queued.len() == 1 {
            self.ready.push_back(client);
        }
        Ok(())
    }

    /// Takes the next item in round-robin order, marking it in flight.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let client = self.ready.pop_front()?;
        let entry = self.clients.get_mut(&client).expect("ready client has a queue");
        let item = entry.queued.pop_front().expect("ready client has a queued item");
        entry.inflight += 1;
        self.queued_total -= 1;
        self.inflight_total += 1;
        if !entry.queued.is_empty() {
            self.ready.push_back(client);
        }
        Some((client, item))
    }

    /// Records that one in-flight item for `client` finished. Safe to
    /// call after [`remove`](FairQueue::remove): the global in-flight
    /// count still balances, so a drain waiting on
    /// [`total_pending`](FairQueue::total_pending) terminates.
    pub fn complete(&mut self, client: u64) {
        self.inflight_total = self.inflight_total.saturating_sub(1);
        if let Some(entry) = self.clients.get_mut(&client) {
            entry.inflight = entry.inflight.saturating_sub(1);
            if entry.queued.is_empty() && entry.inflight == 0 {
                self.clients.remove(&client);
            }
        }
    }

    /// Queued + in-flight items for `client` — 0 means the client is
    /// genuinely idle and safe to reap.
    pub fn pending(&self, client: u64) -> usize {
        self.clients.get(&client).map_or(0, |entry| entry.queued.len() + entry.inflight)
    }

    /// Drops `client` and everything it still has queued. In-flight
    /// items are not recalled — their [`complete`](FairQueue::complete)
    /// still balances the global count when the reply is collected.
    pub fn remove(&mut self, client: u64) {
        if let Some(entry) = self.clients.remove(&client) {
            self.queued_total -= entry.queued.len();
            if entry.inflight > 0 {
                // Keep a tombstone so `complete` still finds the client
                // counted; only the queued items are discarded.
                self.clients.insert(
                    client,
                    ClientQueue { queued: VecDeque::new(), inflight: entry.inflight },
                );
            }
        }
        self.ready.retain(|&c| c != client);
    }

    /// Queued + in-flight items across all clients.
    pub fn total_pending(&self) -> usize {
        self.queued_total + self.inflight_total
    }

    /// Items waiting to be popped (excludes in-flight work).
    pub fn queued(&self) -> usize {
        self.queued_total
    }
}

// ---------------------------------------------------------------------
// Incremental line framing.
// ---------------------------------------------------------------------

/// One framed unit out of a [`LineFramer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line, newline stripped.
    Line(Vec<u8>),
    /// A line that exceeded the limit; its bytes were discarded through
    /// the newline so the stream stays request-aligned.
    TooLong,
}

/// Reassembles newline-delimited requests from arbitrary read chunks.
///
/// A line of exactly `max` bytes passes; one byte more is discarded
/// (cheaply — oversized bytes are dropped as they arrive, never
/// buffered) and reported as a single [`Frame::TooLong`] once its
/// newline shows up.
#[derive(Debug, Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    discarding: bool,
}

impl LineFramer {
    /// Feeds one read chunk; returns every frame it completed.
    pub fn feed(&mut self, bytes: &[u8], max: usize) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(newline) => {
                    if self.discarding {
                        self.discarding = false;
                        frames.push(Frame::TooLong);
                    } else if self.buf.len() + newline > max {
                        self.buf.clear();
                        frames.push(Frame::TooLong);
                    } else {
                        let mut line = std::mem::take(&mut self.buf);
                        line.extend_from_slice(&rest[..newline]);
                        frames.push(Frame::Line(line));
                    }
                    rest = &rest[newline + 1..];
                }
                None => {
                    if !self.discarding {
                        if self.buf.len() + rest.len() > max {
                            self.buf.clear();
                            self.discarding = true;
                        } else {
                            self.buf.extend_from_slice(rest);
                        }
                    }
                    rest = &[];
                }
            }
        }
        frames
    }

    /// Flushes the final unterminated line at EOF, if any.
    pub fn finish(&mut self) -> Option<Frame> {
        if std::mem::take(&mut self.discarding) {
            return Some(Frame::TooLong);
        }
        if self.buf.is_empty() {
            None
        } else {
            Some(Frame::Line(std::mem::take(&mut self.buf)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    #[test]
    fn tick_poller_times_out_and_consumes_wakes() {
        let poller = TickPoller::default();
        let start = Instant::now();
        assert!(!poller.wait(Duration::from_millis(10)), "no wake pending");
        assert!(start.elapsed() >= Duration::from_millis(10));
        poller.wake();
        assert!(poller.wait(Duration::from_secs(5)), "wake consumed immediately");
        assert!(!poller.wait(Duration::from_millis(1)), "wake is one-shot");
    }

    #[test]
    fn tick_poller_wakes_a_blocked_waiter_across_threads() {
        let poller = TickPoller::default();
        let woken = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                woken.store(poller.wait(Duration::from_secs(10)), Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            poller.wake();
        });
        assert!(woken.load(Ordering::SeqCst), "cross-thread wake arrives");
    }

    #[test]
    fn tick_poller_wake_cuts_a_long_wait_short() {
        // The warm-request latency contract: a wake arriving mid-wait
        // must return the waiter promptly — never hold it for the rest
        // of the timeout. The bound is generous (the full tick would be
        // 5 s here) so the assertion survives a loaded CI box while
        // still catching a poller that sleeps out its timeout.
        let poller = TickPoller::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                poller.wake();
            });
            let start = Instant::now();
            assert!(poller.wait(Duration::from_secs(5)), "wake consumed");
            let waited = start.elapsed();
            assert!(
                waited < Duration::from_secs(1),
                "wake must cut the wait short, waited {waited:?}"
            );
        });
    }

    #[test]
    fn fair_queue_round_robins_across_clients() {
        let mut q = FairQueue::new(16);
        for item in ["a1", "a2", "a3"] {
            q.push(1, item).unwrap();
        }
        q.push(2, "b1").unwrap();
        q.push(3, "c1").unwrap();
        let order: Vec<(u64, &str)> = std::iter::from_fn(|| q.pop()).collect();
        // One per client in rotation, then client 1 drains its backlog.
        assert_eq!(order, vec![(1, "a1"), (2, "b1"), (3, "c1"), (1, "a2"), (1, "a3")]);
    }

    #[test]
    fn fair_queue_quota_counts_queued_plus_inflight() {
        let mut q = FairQueue::new(2);
        q.push(1, "a").unwrap();
        q.push(1, "b").unwrap();
        assert_eq!(q.push(1, "c"), Err(PushError::QuotaExceeded));
        // Popping moves an item to in-flight; it still counts.
        let (client, _) = q.pop().unwrap();
        assert_eq!(client, 1);
        assert_eq!(q.push(1, "c"), Err(PushError::QuotaExceeded));
        assert_eq!(q.pending(1), 2);
        // Completion frees a slot.
        q.complete(1);
        q.push(1, "c").unwrap();
        assert_eq!(q.pending(1), 2);
    }

    #[test]
    fn fair_queue_remove_drops_queued_but_balances_inflight() {
        let mut q = FairQueue::new(16);
        q.push(7, "popped").unwrap();
        q.push(7, "discarded").unwrap();
        let _ = q.pop().unwrap();
        assert_eq!(q.total_pending(), 2);
        q.remove(7);
        assert_eq!(q.pending(7), 1, "in-flight survives removal");
        assert_eq!(q.queued(), 0, "queued items were discarded");
        q.complete(7);
        assert_eq!(q.total_pending(), 0, "drain can terminate");
        assert!(q.pop().is_none());
    }

    #[test]
    fn line_framer_reassembles_lines_split_across_chunks() {
        let mut framer = LineFramer::default();
        assert!(framer.feed(b"{\"op\":\"pi", 1024).is_empty());
        let frames = framer.feed(b"ng\"}\n{\"op\":\"stats\"}\n{", 1024);
        assert_eq!(
            frames,
            vec![
                Frame::Line(b"{\"op\":\"ping\"}".to_vec()),
                Frame::Line(b"{\"op\":\"stats\"}".to_vec()),
            ]
        );
        assert_eq!(framer.finish(), Some(Frame::Line(b"{".to_vec())));
        assert_eq!(framer.finish(), None);
    }

    #[test]
    fn line_framer_discards_oversized_lines_and_stays_aligned() {
        let mut framer = LineFramer::default();
        // 8-byte limit: a 9-byte line is discarded, the next survives.
        let mut frames = framer.feed(b"123456789", 8);
        frames.extend(framer.feed(b"still-too-long\nok\n", 8));
        assert_eq!(frames, vec![Frame::TooLong, Frame::Line(b"ok".to_vec())]);
        // Exactly at the limit passes.
        assert_eq!(framer.feed(b"12345678\n", 8), vec![Frame::Line(b"12345678".to_vec())]);
        // Discarding state surfaces at EOF too.
        assert!(framer.feed(b"123456789", 8).is_empty());
        assert_eq!(framer.finish(), Some(Frame::TooLong));
    }
}
