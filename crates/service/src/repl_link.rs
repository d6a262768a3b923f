//! Replication peer links, multiplexed onto the service's existing IO
//! thread.
//!
//! A replicated node keeps one *outbound* link per peer: a TCP
//! connection it dials itself and on which every frame it originates
//! (hello, propose, append, ack, commit) travels. The mirror-image
//! inbound traffic arrives on ordinary accepted connections — the
//! frontend's listener does not distinguish a peer from a client until
//! a frame's `proto` field says `wfc-repl/v1`, at which point the frame
//! is routed to the [`wfc_repl::Node`] instead of the request parser.
//! That asymmetric design means no second listener, no per-peer
//! threads, and no handshake state machine: a link is usable the
//! instant `connect` succeeds, and `hello` (sent first on every fresh
//! link) triggers sequencer-driven catch-up.
//!
//! The only thread replication adds is the **dialer**, which blocks in
//! `connect_timeout` re-establishing dead links under a capped backoff
//! and hands connected sockets to the IO thread through
//! [`ReplShared::incoming`] plus a waker nudge. Workers likewise never
//! touch the node: a freshly *computed* result is pushed onto
//! [`ReplShared::submit`] and the IO thread proposes it at the next
//! wake-up — the same single-writer discipline every other mutable
//! frontend structure follows.

use std::net::{TcpStream, ToSocketAddrs as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wfc_obs::json::Json;
use wfc_repl::node::Effect;
use wfc_repl::{Entry as ReplEntry, Node, NodeConfig};
use wfc_spec::hash::Hash128;
use wfc_spec::repl::{msg, PROTO};

use crate::cache::ResultCache;
use crate::conn::ConnShared;
use crate::poller::Waker;
use crate::server::accept_backoff;
use crate::wire::{FrameBuffer, QueryKind};

/// Replication settings for one `wfc serve` node.
#[derive(Clone, Debug)]
pub struct ReplConfig {
    /// This node's member id (must be unique in the cluster).
    pub node_id: u64,
    /// Peer members as `(id, addr)`, this node excluded.
    pub peers: Vec<(u64, String)>,
    /// Directory for the WAL and snapshot.
    pub data_dir: PathBuf,
    /// Compact the WAL once it holds this many records (0 disables).
    pub compact_threshold: u64,
}

/// State shared between the IO thread, the dialer, and the workers.
pub(crate) struct ReplShared {
    /// Sockets the dialer connected, waiting for the IO thread to adopt
    /// them: `(peer slot, stream)`.
    pub(crate) incoming: Mutex<Vec<(usize, TcpStream)>>,
    /// Freshly computed results workers want replicated.
    pub(crate) submit: Mutex<Vec<ReplEntry>>,
    /// Per-slot link liveness; the dialer only dials slots that are
    /// down.
    link_up: Vec<AtomicBool>,
}

/// One outbound peer link owned by the IO thread.
pub(crate) struct PeerLink {
    pub(crate) id: u64,
    pub(crate) stream: Option<TcpStream>,
    /// Outbound frame buffer, same machinery as a client connection.
    /// Frames queued while the link is down are kept (and flushed after
    /// reconnection) — a catch-up answer to a just-restarted peer races
    /// the dialer re-establishing the link, and must not lose.
    pub(crate) shared: Arc<ConnShared>,
    /// Inbound assembler: peers do not speak on our outbound link, but
    /// a read is how EOF (peer death) is detected.
    pub(crate) inbuf: FrameBuffer,
    pub(crate) write_blocked: bool,
    /// Frames queued since the link went down, capped by
    /// [`MAX_DOWN_FRAMES`] so a permanently dead peer cannot grow the
    /// buffer forever (catch-up re-derives dropped frames on hello).
    queued_down: usize,
}

/// Frames buffered for a down link before the backlog is dropped.
const MAX_DOWN_FRAMES: usize = 8192;

/// The IO thread's replication state: the node plus its links.
pub(crate) struct ReplRuntime {
    pub(crate) node: Node,
    pub(crate) links: Vec<PeerLink>,
    pub(crate) shared: Arc<ReplShared>,
    cache: Arc<ResultCache>,
}

impl ReplRuntime {
    /// Opens the node (recovering WAL + snapshot) and re-applies every
    /// recovered commit to the cache before the server accepts a single
    /// connection.
    pub(crate) fn open(
        config: &ReplConfig,
        cache: Arc<ResultCache>,
    ) -> std::io::Result<ReplRuntime> {
        let node_config = NodeConfig {
            node_id: config.node_id,
            members: config.peers.iter().map(|(id, _)| *id).collect(),
            compact_threshold: config.compact_threshold,
        };
        let (node, recovery) = Node::open(node_config, &config.data_dir)?;
        let shared = Arc::new(ReplShared {
            incoming: Mutex::new(Vec::new()),
            submit: Mutex::new(Vec::new()),
            link_up: config
                .peers
                .iter()
                .map(|_| AtomicBool::new(false))
                .collect(),
        });
        let links = config
            .peers
            .iter()
            .map(|(id, _)| PeerLink {
                id: *id,
                stream: None,
                shared: Arc::new(ConnShared::new()),
                inbuf: FrameBuffer::new(),
                write_blocked: false,
                queued_down: 0,
            })
            .collect();
        let mut runtime = ReplRuntime {
            node,
            links,
            shared,
            cache,
        };
        runtime.process_effects(recovery.effects);
        Ok(runtime)
    }

    /// Adopts sockets the dialer connected: each becomes the slot's live
    /// stream and immediately carries a `hello`, which is what triggers
    /// catch-up for anything this node missed while the link was down.
    pub(crate) fn drain_incoming(&mut self) {
        let adopted: Vec<(usize, TcpStream)> =
            self.shared.incoming.lock().unwrap().drain(..).collect();
        for (slot, stream) in adopted {
            let hello = self.node.hello_msg();
            let link = &mut self.links[slot];
            // The buffer queued while the link was down is kept and
            // flushed first: it may hold the catch-up a restarted peer
            // already asked for. (It is clean — `drop_link` replaced
            // the buffer, so nothing in it was half-written to the old
            // socket.) Frame order vs. the hello is immaterial: every
            // frame is idempotent to reprocess.
            link.inbuf = FrameBuffer::new();
            link.write_blocked = false;
            link.queued_down = 0;
            link.shared.enqueue_json(&hello);
            link.stream = Some(stream);
            wfc_obs::counter!("repl.links.established");
        }
    }

    /// Proposes everything the workers queued since the last wake-up.
    pub(crate) fn drain_submits(&mut self) {
        let entries: Vec<ReplEntry> = self.shared.submit.lock().unwrap().drain(..).collect();
        for entry in entries {
            match self.node.propose(entry) {
                Ok(effects) => self.process_effects(effects),
                Err(_) => wfc_obs::counter!("repl.wal.errors"),
            }
        }
    }

    /// Routes one inbound `wfc-repl/v1` frame (from any accepted
    /// connection) through the node.
    pub(crate) fn handle_frame(&mut self, doc: &Json) {
        match self.node.handle(doc) {
            Ok(effects) => self.process_effects(effects),
            Err(_) => wfc_obs::counter!("repl.wal.errors"),
        }
    }

    /// Marks a link dead; the dialer will re-establish it.
    pub(crate) fn drop_link(&mut self, slot: usize) {
        let link = &mut self.links[slot];
        if link.stream.take().is_some() {
            wfc_obs::counter!("repl.links.lost");
        }
        // A fresh buffer: the old one may hold a frame half-written to
        // the dead socket, which must never leak onto a new one.
        link.shared = Arc::new(ConnShared::new());
        link.write_blocked = false;
        link.queued_down = 0;
        self.shared.link_up[slot].store(false, Ordering::SeqCst);
    }

    /// Live outbound links.
    pub(crate) fn peers_connected(&self) -> u64 {
        self.links.iter().filter(|l| l.stream.is_some()).count() as u64
    }

    /// The node's `status-reply` for a client's `status` request.
    pub(crate) fn status_doc(&self, id: u64) -> Json {
        self.node.status(id, self.peers_connected())
    }

    /// The compact per-node summary embedded in `wfc-stats/v1`.
    pub(crate) fn stats_section(&self) -> Json {
        Json::obj(vec![
            ("node_id", Json::U64(self.node.node_id())),
            ("sequencer", Json::U64(self.node.sequencer())),
            ("members", Json::U64(self.node.members().len() as u64)),
            ("last_index", Json::U64(self.node.last_index())),
            ("committed", Json::U64(self.node.committed_count())),
            ("applied", Json::U64(self.node.applied_count())),
            ("peers_connected", Json::U64(self.peers_connected())),
        ])
    }

    fn process_effects(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    if let Some(link) = self.links.iter_mut().find(|l| l.id == to) {
                        if link.stream.is_none() {
                            // Queue for the reconnect flush — but
                            // bounded; past the cap the backlog is
                            // dropped and the peer's next hello
                            // re-derives what mattered.
                            link.queued_down += 1;
                            if link.queued_down > MAX_DOWN_FRAMES {
                                link.shared = Arc::new(ConnShared::new());
                                link.queued_down = 0;
                                wfc_obs::counter!("repl.links.backlog_dropped");
                            }
                        }
                        link.shared.enqueue_json(&msg);
                    }
                }
                Effect::Apply { index: _, entry } => self.apply(&entry),
            }
        }
    }

    /// A committed entry lands in the local cache exactly as if this
    /// node had computed it — byte-identical result document under the
    /// same key, which the differential tests pin down.
    fn apply(&self, entry: &ReplEntry) {
        let (Some(key), Some(kind)) =
            (Hash128::from_hex(&entry.key), QueryKind::parse(&entry.kind))
        else {
            // from_json validated the key shape, so this is a kind this
            // build does not know — a newer peer; skip, don't die.
            wfc_obs::counter!("repl.apply.skipped");
            return;
        };
        self.cache
            .apply_replicated(key, kind, &entry.type_name, &entry.result);
    }
}

impl std::fmt::Debug for ReplRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplRuntime")
            .field("node_id", &self.node.node_id())
            .field("peers_connected", &self.peers_connected())
            .finish_non_exhaustive()
    }
}

/// Answers a `status` request on a server with replication off.
pub(crate) fn disabled_status(id: u64) -> Json {
    Json::obj(vec![
        ("proto", Json::Str(PROTO.to_owned())),
        ("type", Json::Str(msg::STATUS_REPLY.to_owned())),
        ("id", Json::U64(id)),
        ("enabled", Json::Bool(false)),
    ])
}

/// The dialer: re-establishes dead outbound links under a capped
/// exponential backoff (the same curve as accept errors) and hands
/// connected sockets to the IO thread. One thread per server, only when
/// replication is configured.
pub(crate) fn dialer_loop(
    peers: Vec<String>,
    shared: Arc<ReplShared>,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
) {
    let mut failures: Vec<u32> = vec![0; peers.len()];
    let mut next_attempt: Vec<Instant> = vec![Instant::now(); peers.len()];
    while !shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        for (slot, addr) in peers.iter().enumerate() {
            if shared.link_up[slot].load(Ordering::SeqCst) || now < next_attempt[slot] {
                continue;
            }
            match dial(addr) {
                Ok(stream) => {
                    failures[slot] = 0;
                    shared.link_up[slot].store(true, Ordering::SeqCst);
                    shared.incoming.lock().unwrap().push((slot, stream));
                    waker.wake();
                }
                Err(_) => {
                    wfc_obs::counter!("repl.dial.errors");
                    failures[slot] = failures[slot].saturating_add(1);
                    next_attempt[slot] = Instant::now() + accept_backoff(failures[slot]);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn dial(addr: &str) -> std::io::Result<TcpStream> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("no address for `{addr}`")))?;
    let stream = TcpStream::connect_timeout(&resolved, Duration::from_millis(500))?;
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}
