//! Real message transport for the threaded runtime.
//!
//! The simulator's [`Network`](crate::Network) accounts logical
//! messages and charges the simulated clock, but actual data moves by
//! direct call on one thread. The threaded runtime needs messages to
//! cross real OS threads, so this module provides a small transport
//! interface and an implementation over `std::sync::mpsc` channels: a
//! full mesh where every node holds a clone of every other node's
//! sender and its own receiver.
//!
//! Guarantees the runtime relies on:
//!
//! - **Per-link FIFO.** An mpsc channel delivers a single sender's
//!   messages in send order, so messages from node A to node B arrive
//!   in the order A sent them (no cross-link ordering is promised,
//!   matching a real network).
//! - **No silent loss.** A send to a node whose endpoint has been
//!   dropped fails with [`Error::NodeDown`] — the sender finds out.
//!   Messages still queued when an endpoint shuts down are counted by
//!   [`ChannelEndpoint::drain`], so `sent == received + drained` holds
//!   across the mesh and tests can assert nothing vanished.

use crate::MsgKind;
use cblog_common::{Error, NodeId, Result, SpanCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// One protocol message in flight between two nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Protocol message type (shared taxonomy with the simulator).
    pub kind: MsgKind,
    /// Opaque payload, encoded by the protocol layer.
    pub payload: Vec<u8>,
    /// Causal span context of the send — the channel-mesh analogue of
    /// the simulator's `MsgHeader`, so the receiving side can parent
    /// its spans on the message that caused them. [`SpanCtx::NONE`]
    /// when the sender is not tracing.
    pub ctx: SpanCtx,
}

/// Node-local handle on an inter-thread message fabric.
///
/// Implementations must be `Send` so a handle can move into the worker
/// thread that owns the node.
pub trait Transport: Send {
    /// The node this endpoint belongs to.
    fn node(&self) -> NodeId;

    /// Number of nodes in the mesh.
    fn node_count(&self) -> usize;

    /// Sends `payload` to `to`. Fails with [`Error::NodeDown`] if the
    /// destination endpoint has shut down.
    fn send(&self, to: NodeId, kind: MsgKind, payload: Vec<u8>) -> Result<()> {
        self.send_ctx(to, kind, payload, SpanCtx::NONE)
    }

    /// As [`Transport::send`], carrying the sender's causal span
    /// context in the message header.
    fn send_ctx(&self, to: NodeId, kind: MsgKind, payload: Vec<u8>, ctx: SpanCtx) -> Result<()>;

    /// Non-blocking receive; `None` when the queue is empty.
    fn try_recv(&self) -> Option<Envelope>;

    /// Blocking receive with a timeout; `None` on timeout or when all
    /// senders are gone.
    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope>;

    /// Messages successfully handed to the fabric by this endpoint.
    fn sent(&self) -> u64;

    /// Messages received (via `try_recv` / `recv_timeout`) by this
    /// endpoint.
    fn received(&self) -> u64;
}

/// Full-mesh channel transport: constructor for a set of connected
/// [`ChannelEndpoint`]s.
pub struct ChannelMesh;

impl ChannelMesh {
    /// Builds an `n`-node mesh and returns one endpoint per node,
    /// indexed by node id. Move each endpoint into its node's worker
    /// thread.
    pub fn endpoints(n: usize) -> Vec<ChannelEndpoint> {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| ChannelEndpoint {
                node: NodeId(i as u32),
                peers: senders.clone(),
                rx,
                sent: Arc::new(AtomicU64::new(0)),
                received: Arc::new(AtomicU64::new(0)),
            })
            .collect()
    }
}

/// One node's endpoint on a [`ChannelMesh`]: senders to every peer
/// (including itself) plus its own receive queue.
pub struct ChannelEndpoint {
    node: NodeId,
    peers: Vec<Sender<Envelope>>,
    rx: Receiver<Envelope>,
    sent: Arc<AtomicU64>,
    received: Arc<AtomicU64>,
}

impl ChannelEndpoint {
    /// Consumes and counts every message still queued, for shutdown
    /// accounting. After draining, `sent` across the mesh equals
    /// `received` plus what the drains returned across the mesh.
    /// Returns the number drained by this call.
    pub fn drain(&self) -> u64 {
        let mut n = 0;
        while self.rx.try_recv().is_ok() {
            n += 1;
        }
        n
    }
}

impl Transport for ChannelEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn node_count(&self) -> usize {
        self.peers.len()
    }

    fn send_ctx(&self, to: NodeId, kind: MsgKind, payload: Vec<u8>, ctx: SpanCtx) -> Result<()> {
        let tx = self
            .peers
            .get(to.0 as usize)
            .ok_or_else(|| Error::Invalid(format!("send to unknown node {}", to.0)))?;
        let env = Envelope {
            from: self.node,
            kind,
            payload,
            ctx,
        };
        match tx.send(env) {
            Ok(()) => {
                self.sent.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => Err(Error::NodeDown(to)),
        }
    }

    fn try_recv(&self) -> Option<Envelope> {
        match self.rx.try_recv() {
            Ok(env) => {
                self.received.fetch_add(1, Ordering::Relaxed);
                Some(env)
            }
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => {
                self.received.fetch_add(1, Ordering::Relaxed);
                Some(env)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn seq_payload(i: u64) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    fn seq_of(env: &Envelope) -> u64 {
        u64::from_le_bytes(env.payload.as_slice().try_into().unwrap())
    }

    #[test]
    fn per_link_delivery_is_in_order() {
        let mut eps = ChannelMesh::endpoints(3);
        let receiver = eps.remove(0);
        const N: u64 = 1000;
        thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    for i in 0..N {
                        ep.send(NodeId(0), MsgKind::PageShip, seq_payload(i))
                            .unwrap();
                    }
                });
            }
            s.spawn(move || {
                // Track the last sequence number seen per sender; each
                // link must deliver in send order even though the two
                // links interleave arbitrarily.
                let mut last = [None::<u64>; 3];
                for _ in 0..2 * N {
                    let env = receiver
                        .recv_timeout(Duration::from_secs(5))
                        .expect("receive timed out");
                    let seq = seq_of(&env);
                    if let Some(prev) = last[env.from.0 as usize] {
                        assert!(
                            seq > prev,
                            "link {} reordered: {seq} after {prev}",
                            env.from.0
                        );
                    }
                    last[env.from.0 as usize] = Some(seq);
                }
                assert_eq!(receiver.received(), 2 * N);
                assert_eq!(last[1], Some(N - 1));
                assert_eq!(last[2], Some(N - 1));
            });
        });
    }

    #[test]
    fn send_to_down_node_fails_and_nothing_is_lost_silently() {
        let mut eps = ChannelMesh::endpoints(2);
        let b = eps.remove(1);
        let a = eps.remove(0);

        // A sends some traffic B never consumes, then B shuts down.
        for i in 0..10 {
            a.send(NodeId(1), MsgKind::Callback, seq_payload(i))
                .unwrap();
        }
        let drained = b.drain();
        assert_eq!(drained, 10, "queued messages are accounted at shutdown");
        assert_eq!(a.sent(), b.received() + drained);
        drop(b);

        // Further sends to the downed node fail loudly instead of
        // disappearing, and are not counted as sent.
        let before = a.sent();
        match a.send(NodeId(1), MsgKind::Callback, vec![]) {
            Err(Error::NodeDown(n)) => assert_eq!(n, NodeId(1)),
            other => panic!("expected NodeDown, got {other:?}"),
        }
        assert_eq!(a.sent(), before);
    }

    #[test]
    fn self_send_and_bounds() {
        let mut eps = ChannelMesh::endpoints(1);
        let a = eps.remove(0);
        assert_eq!(a.node(), NodeId(0));
        assert_eq!(a.node_count(), 1);
        a.send(NodeId(0), MsgKind::FlushAck, vec![7]).unwrap();
        let env = a.try_recv().unwrap();
        assert_eq!(env.from, NodeId(0));
        assert_eq!(env.kind, MsgKind::FlushAck);
        assert_eq!(env.payload, vec![7]);
        assert_eq!(env.ctx, SpanCtx::NONE, "plain send carries no context");
        assert!(a.try_recv().is_none());
        assert!(a.send(NodeId(9), MsgKind::FlushAck, vec![]).is_err());
    }

    #[test]
    fn span_context_rides_the_header() {
        use cblog_common::SpanId;
        let mut eps = ChannelMesh::endpoints(1);
        let a = eps.remove(0);
        let ctx = SpanCtx::child(SpanId(9), SpanId(3));
        a.send_ctx(NodeId(0), MsgKind::LockRequest, vec![1], ctx)
            .unwrap();
        let env = a.try_recv().unwrap();
        assert_eq!(env.ctx, ctx, "causal context survives the channel");
    }
}
