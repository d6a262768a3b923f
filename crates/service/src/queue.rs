//! The bounded job queue between the readiness frontend and the worker
//! pool.
//!
//! Every admitted request is one [`Job`]; a worker pops and answers it
//! alone, so a cheap query never waits behind a slow one while another
//! worker is idle. Identical in-flight requests are deduplicated one
//! layer down, by the result cache's single-flight — the queue does no
//! coalescing of its own. Capacity is counted in requests: the `busy`
//! depth a rejected client sees is the number of requests ahead of it.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use wfc_spec::stage::Stage;

use crate::conn::ConnShared;
use crate::stats::RequestTrace;
use crate::wire::Request;

/// One admitted request: the query, the connection to answer on, and
/// the request's stage trace (when observability is on).
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) conn: Arc<ConnShared>,
    pub(crate) trace: Option<Box<RequestTrace>>,
}

/// The bounded FIFO of jobs. Pushes never block: at capacity they are
/// refused, and the caller answers `busy`.
pub(crate) struct JobQueue {
    capacity: usize,
    state: Mutex<(VecDeque<Job>, bool)>, // (jobs, closed)
    cv: Condvar,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> JobQueue {
        JobQueue {
            capacity,
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs queued and not yet claimed by a worker.
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().0.len()
    }

    /// Admits `job`, stamping its trace `Enqueued`. At capacity the job
    /// is handed back with the depth observed, for the `busy` answer.
    pub(crate) fn try_push(&self, mut job: Job) -> Result<(), (Job, usize)> {
        let mut state = self.state.lock().unwrap();
        let depth = state.0.len();
        if depth >= self.capacity {
            return Err((job, depth));
        }
        if let Some(trace) = &mut job.trace {
            trace.stamp(Stage::Enqueued);
        }
        state.0.push_back(job);
        wfc_obs::gauge_set!("service.queue.depth", (depth + 1) as i64);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed and drained.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.0.pop_front() {
                wfc_obs::gauge_set!("service.queue.depth", state.0.len() as i64);
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.cv.wait(state).unwrap();
        }
    }

    pub(crate) fn close(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{QueryKind, QueryOptions};

    fn job(id: u64, text: &str) -> Job {
        Job {
            request: Request {
                id,
                kind: QueryKind::Classify,
                type_text: text.to_owned(),
                options: QueryOptions::default(),
            },
            conn: Arc::new(ConnShared::new()),
            trace: None,
        }
    }

    #[test]
    fn capacity_counts_requests_and_reports_observed_depth() {
        let queue = JobQueue::new(2);
        assert!(queue.try_push(job(1, "a")).is_ok());
        // An identical request is not coalesced here: it costs a slot.
        assert!(queue.try_push(job(2, "a")).is_ok());
        assert_eq!(queue.depth(), 2);
        match queue.try_push(job(3, "c")) {
            Err((refused, used)) => {
                assert_eq!(refused.request.id, 3, "the refused job comes back");
                assert_eq!(used, 2);
            }
            Ok(()) => panic!("a full queue must refuse"),
        }
        // Popping frees a slot.
        assert_eq!(queue.pop().map(|j| j.request.id), Some(1));
        assert_eq!(queue.depth(), 1);
        assert!(queue.try_push(job(4, "d")).is_ok());
    }

    #[test]
    fn jobs_pop_in_arrival_order_and_close_drains() {
        let queue = JobQueue::new(8);
        for id in 1..=3 {
            assert!(queue.try_push(job(id, &format!("t{id}"))).is_ok());
        }
        queue.close();
        let ids: Vec<u64> = std::iter::from_fn(|| queue.pop())
            .map(|j| j.request.id)
            .collect();
        assert_eq!(ids, vec![1, 2, 3], "closing still drains queued jobs");
        assert_eq!(queue.depth(), 0);
    }
}
