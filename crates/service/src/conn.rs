//! The write half of a frontend connection, shared between the IO loop
//! (which owns the socket and performs the nonblocking writes) and the
//! producers of responses: the IO thread's inline answers, the workers.
//!
//! A producer renders its response frame on its own stack, appends it
//! to the connection's one frame queue under a short lock, and raises
//! `has_output`. The IO thread takes the whole queue by one swap under
//! that lock and copies the frames into the outbound byte buffer after
//! releasing it, so the lock is never held across a copy or a
//! `write(2)`, and a slow-reading client never blocks a worker. Frames
//! leave in push order, so each producer's frames keep their order.
//!
//! The **lost-wakeup handshake** on `has_output`: producers push,
//! *then* store the flag (`SeqCst`); the flusher swaps the flag to
//! `false` *before* taking the queue. If the swap observes the store,
//! the queue lock makes the push visible to the take; if the store
//! lands after the swap, the flag is simply up again and the IO loop
//! (nudged by the self-pipe waker) flushes once more. Either way no
//! frame is stranded.

use std::collections::VecDeque;
use std::io::{self, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use wfc_obs::json::Json;
use wfc_spec::stage::Stage;

use crate::stats::RequestTrace;
use crate::wire::write_frame;

/// One rendered response: the framed bytes plus the request trace that
/// rides to the flush watermark with them.
struct Frame {
    bytes: Vec<u8>,
    trace: Option<Box<RequestTrace>>,
}

#[derive(Default)]
struct OutBuf {
    bytes: Vec<u8>,
    pos: usize,
    /// Bytes ever framed into this buffer (monotonic across drains).
    enqueued_total: u64,
    /// Bytes ever accepted by the socket.
    flushed_total: u64,
    /// Traces waiting for their response's last byte to leave, keyed
    /// by the `enqueued_total` watermark that byte corresponds to;
    /// watermarks are non-decreasing, so this drains front-first as
    /// `flushed_total` advances.
    pending_traces: VecDeque<(u64, Box<RequestTrace>)>,
}

/// Shared per-connection response channel. See the module docs.
pub(crate) struct ConnShared {
    /// Rendered frames waiting for the IO thread, in push order.
    queue: Mutex<Vec<Frame>>,
    /// The IO-thread-only staging buffer frames are absorbed into.
    outbound: Mutex<OutBuf>,
    has_output: AtomicBool,
    closed: AtomicBool,
}

impl ConnShared {
    /// An open connection with nothing queued.
    pub(crate) fn new() -> ConnShared {
        ConnShared {
            queue: Mutex::new(Vec::new()),
            outbound: Mutex::new(OutBuf::default()),
            has_output: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }

    /// Frames `doc`, or `None` if the connection closed (late responses
    /// to a departed peer are dropped, like a failed write) or the frame
    /// is over `MAX_FRAME`, the only error writing to a `Vec` can give.
    fn render(&self, doc: &Json) -> Option<Vec<u8>> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let mut bytes = Vec::new();
        write_frame(&mut bytes, doc).ok()?;
        Some(bytes)
    }

    /// Frames `doc` and queues it for the IO thread; see [`Self::render`]
    /// for when it is dropped instead.
    pub(crate) fn enqueue_json(&self, doc: &Json) {
        if let Some(bytes) = self.render(doc) {
            self.push_frame(Frame { bytes, trace: None });
        }
    }

    /// [`enqueue_json`](ConnShared::enqueue_json) for a traced request:
    /// stamps `ResponseEnqueued` and sends the trace along with the
    /// frame; the flush that writes the frame's last byte completes it.
    /// Hands the trace back untouched if the response is dropped, so the
    /// caller can finalize it as dropped.
    pub(crate) fn enqueue_json_traced(
        &self,
        doc: &Json,
        mut trace: Box<RequestTrace>,
    ) -> Option<Box<RequestTrace>> {
        let Some(bytes) = self.render(doc) else {
            return Some(trace);
        };
        trace.stamp(Stage::ResponseEnqueued);
        self.push_frame(Frame {
            bytes,
            trace: Some(trace),
        });
        None
    }

    /// Queues one rendered frame, then raises `has_output` (see the
    /// module docs for the lost-wakeup argument).
    fn push_frame(&self, frame: Frame) {
        self.queue.lock().expect("frame queue poisoned").push(frame);
        self.has_output.store(true, Ordering::SeqCst);
    }

    /// Moves every queued frame into the outbound byte buffer,
    /// assigning watermarks in absorption order. The queue lock covers
    /// only the take; the copying happens after it is released.
    fn absorb(&self, out: &mut OutBuf) {
        let frames = std::mem::take(&mut *self.queue.lock().expect("frame queue poisoned"));
        for frame in frames {
            out.bytes.extend_from_slice(&frame.bytes);
            out.enqueued_total += frame.bytes.len() as u64;
            if let Some(trace) = frame.trace {
                out.pending_traces.push_back((out.enqueued_total, trace));
            }
        }
    }

    /// Whether queued response bytes are waiting for the socket.
    pub(crate) fn has_output(&self) -> bool {
        self.has_output.load(Ordering::SeqCst)
    }

    /// Absorbs queued frames, then writes buffered bytes until the
    /// buffer empties or the socket pushes back. Returns `Ok(true)`
    /// when fully flushed, `Ok(false)` on `WouldBlock` (the IO loop
    /// then polls for writability). Traces whose response's last byte
    /// just left are moved into `completed` with their `BytesFlushed`
    /// stamp taken; the caller (the IO thread) finalizes them.
    ///
    /// # Errors
    ///
    /// Any real socket error; the caller closes the connection.
    pub(crate) fn flush(
        &self,
        stream: &mut TcpStream,
        completed: &mut Vec<RequestTrace>,
    ) -> io::Result<bool> {
        // Claim the wake before taking the queue — a producer whose push
        // this take misses re-raises the flag after it (module docs).
        self.has_output.swap(false, Ordering::SeqCst);
        let mut out = self.outbound.lock().unwrap();
        self.absorb(&mut out);
        let result = loop {
            if out.pos >= out.bytes.len() {
                break Ok(true);
            }
            let pos = out.pos;
            match stream.write(&out.bytes[pos..]) {
                Ok(0) => break Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(n) => {
                    out.pos += n;
                    out.flushed_total += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(false),
                Err(e) => break Err(e),
            }
        };
        // Complete traces regardless of how the loop ended: partial
        // progress before an error still delivered those responses.
        while out
            .pending_traces
            .front()
            .is_some_and(|(watermark, _)| *watermark <= out.flushed_total)
        {
            let (_, mut trace) = out.pending_traces.pop_front().unwrap();
            trace.stamp(Stage::BytesFlushed);
            completed.push(*trace);
        }
        if result.as_ref().is_ok_and(|flushed_all| *flushed_all) {
            out.bytes.clear();
            out.pos = 0;
        } else {
            if out.pos > 256 * 1024 {
                // Reclaim large written prefixes so a persistently slow
                // reader doesn't pin already-delivered bytes forever.
                let pos = out.pos;
                out.bytes.drain(..pos);
                out.pos = 0;
            }
            // Bytes remain: keep the flag up so the IO loop retries
            // (its interest set includes POLLOUT while output pends).
            self.has_output.store(true, Ordering::SeqCst);
        }
        result
    }

    /// Takes every trace still awaiting its flush watermark — including
    /// those still in the queue — the connection-teardown path,
    /// where those responses will never be delivered. IO thread only.
    pub(crate) fn take_pending_traces(&self) -> Vec<RequestTrace> {
        let mut out = self.outbound.lock().unwrap();
        self.absorb(&mut out);
        out.pending_traces.drain(..).map(|(_, t)| *t).collect()
    }

    /// Marks the connection gone; subsequent enqueues are dropped.
    pub(crate) fn set_closed(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for ConnShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnShared")
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::io::{Cursor, Read as _};
    use std::net::{Shutdown, TcpListener};
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    use super::*;
    use crate::wire::{read_frame, QueryKind};

    /// Producers race the flusher on one connection over loopback.
    /// Every frame arrives whole and once, each producer's in push
    /// order, and every third frame's trace completes exactly once, in
    /// the flush whose written bytes reach the frame's last byte.
    #[test]
    fn concurrent_producers_deliver_every_frame_once_in_order() {
        const PRODUCERS: u64 = 4;
        const FRAMES: u64 = 2_000;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut peer = listener.accept().unwrap().0;
        writer.set_nonblocking(true).unwrap();
        let (conn, finished) = (ConnShared::new(), AtomicU64::new(0));
        let mut completions = Vec::new(); // (request id, flushed before, after)
        let mut received = Vec::new();
        std::thread::scope(|s| {
            // The peer reads only once every frame is queued, so the
            // socket fills and flushes stop part-way through frames.
            let reader = s.spawn(|| {
                while finished.load(Ordering::SeqCst) < PRODUCERS {
                    std::thread::yield_now();
                }
                peer.read_to_end(&mut received).unwrap()
            });
            for p in 0..PRODUCERS {
                let (conn, finished) = (&conn, &finished);
                s.spawn(move || {
                    for (i, id) in (0..FRAMES).zip(p * FRAMES..) {
                        let pad = Json::Str("x".repeat(i as usize % 7 * 1000));
                        let doc =
                            Json::obj(vec![("p", Json::U64(p)), ("i", Json::U64(i)), ("pad", pad)]);
                        if i % 3 == 0 {
                            let trace =
                                RequestTrace::new(id, id, QueryKind::Classify, Instant::now());
                            assert!(conn.enqueue_json_traced(&doc, trace).is_none());
                        } else {
                            conn.enqueue_json(&doc);
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            let (mut completed, mut partial_flushes) = (Vec::new(), 0);
            loop {
                // Read before the flush, which then takes the last frames.
                let all_pushed = finished.load(Ordering::SeqCst) == PRODUCERS;
                let before = conn.outbound.lock().unwrap().flushed_total;
                let flushed_all = conn.flush(&mut writer, &mut completed).unwrap();
                let after = conn.outbound.lock().unwrap().flushed_total;
                completions.extend(completed.drain(..).map(|t| (t.request_id, before, after)));
                if all_pushed && flushed_all {
                    break;
                }
                partial_flushes += usize::from(!flushed_all);
                std::thread::yield_now();
            }
            assert!(partial_flushes > 0, "the socket never pushed back");
            writer.shutdown(Shutdown::Write).unwrap();
            reader.join().unwrap();
        });

        // A torn frame breaks the length framing or the JSON parse.
        let mut cursor = Cursor::new(&received[..]);
        let (mut next, mut watermarks) = ([0; PRODUCERS as usize], HashMap::new());
        while let Some(doc) = read_frame(&mut cursor).unwrap() {
            let field = |key| doc.get(key).and_then(Json::as_u64).unwrap();
            let (p, i) = (field("p"), field("i"));
            assert_eq!(i, next[p as usize], "producer {p}'s frames out of order");
            next[p as usize] += 1;
            if i % 3 == 0 {
                watermarks.insert(p * FRAMES + i, cursor.position());
            }
        }
        assert_eq!(next, [FRAMES; PRODUCERS as usize], "frames lost");
        assert_eq!(completions.len(), watermarks.len());
        for (id, before, after) in completions {
            // `remove` also fails a trace that completes twice.
            let end = watermarks.remove(&id).expect("one completion per trace");
            assert!(
                before < end && end <= after,
                "trace {id} ends at {end}, flushed {before}..{after}"
            );
        }
    }
}
