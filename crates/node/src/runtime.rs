//! The sans-I/O node runtime: one node's complete middleware loop —
//! session lifecycles, advertisement cadence, peer connectivity — as a
//! pure state machine with frames at the edge and time always injected.
//!
//! The runtime owns connectivity: its peer set, fed by
//! [`on_encounter_up`](NodeRuntime::on_encounter_up) /
//! [`on_encounter_down`](NodeRuntime::on_encounter_down), decides who
//! hears an advertisement and which inbound frames get through.
//! Transports only report contact transitions (the simulation driver
//! also keeps each contact's link distance for its physics).
//!
//! Two drivers move its frames:
//!
//! * the **simulation driver** (`sos_experiments::driver`, downstream
//!   of this crate) uses the typed surface
//!   ([`push_frame_in`](NodeRuntime::push_frame_in) /
//!   [`poll_frames`](NodeRuntime::poll_frames)) with its own shared RNG,
//!   preserving record→replay byte-identity through the refactor;
//! * a **real transport** (the loopback TCP daemon, or the in-process
//!   [`mesh`](crate::mesh) twin) uses the byte surface
//!   ([`push_frame`](NodeRuntime::push_frame) /
//!   [`poll_output`](NodeRuntime::poll_output)), a codec shim over the
//!   typed surface that runs it with the runtime's own seeded RNG and
//!   injected clock.
//!
//! Nothing here reads a wall clock: [`advance_to`](NodeRuntime::advance_to)
//! is the only way time moves, so the no-wallclock lint holds for in-vivo
//! builds exactly as for simulation.

use alleyoop::app::AlleyOopApp;
use rand::{RngCore, SeedableRng};
use sos_core::message::MessageId;
use sos_core::middleware::{SosEvent, SosStats};
use sos_net::{Frame, NetError, PeerId};
use sos_sim::{SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// Errors surfaced by the runtime's byte edge.
#[derive(Debug)]
pub enum NodeError {
    /// Inbound bytes did not decode to a frame (or exceeded caps).
    Codec(NetError),
    /// A frame arrived from a peer no encounter connects us to; on a
    /// real transport this means the remote's contact view is stale,
    /// and the frame is dropped exactly as the simulation driver drops
    /// frames that arrive after contact-down.
    NotInContact {
        /// The sender.
        peer: PeerId,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Codec(e) => write!(f, "inbound frame rejected: {e}"),
            NodeError::NotInContact { peer } => {
                write!(f, "frame from peer {} outside any contact", peer.0)
            }
        }
    }
}

impl std::error::Error for NodeError {}

/// Runtime configuration: the advertisement cadence and the node's own
/// randomness seed (used only on the byte surface; the simulation
/// driver injects its shared RNG instead).
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Advertisement broadcast period.
    pub ad_interval: SimDuration,
    /// Phase offset of the first advertisement (stagger nodes across
    /// the interval so simultaneous session collisions are rare).
    pub ad_phase: SimDuration,
    /// Seed for the runtime-internal RNG behind the byte surface.
    pub seed: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            ad_interval: SimDuration::from_secs(60),
            ad_phase: SimDuration::from_millis(0),
            seed: 7,
        }
    }
}

/// One node's transport-agnostic middleware loop.
///
/// Owns the [`AlleyOopApp`] (and through it the `Sos` middleware and
/// every `SessionEndpoint`), the set of peers an encounter currently
/// connects, the outbox of frames awaiting the transport, and the
/// advertisement schedule. All methods are synchronous and
/// deterministic; the transport decides *when* to call them.
pub struct NodeRuntime {
    app: AlleyOopApp,
    /// Peers inside an open contact, ascending — the emission order for
    /// advertisement broadcasts.
    peers: BTreeSet<u32>,
    /// Frames awaiting the transport, in emission order.
    outbox: VecDeque<(PeerId, Frame)>,
    /// Application events drained from the middleware, stamped with the
    /// injected time they were processed at.
    events: VecDeque<(SimTime, SosEvent)>,
    clock: SimTime,
    next_ad: SimTime,
    ad_interval: SimDuration,
    rng: rand::rngs::StdRng,
}

impl NodeRuntime {
    /// Wraps an app in a runtime.
    pub fn new(app: AlleyOopApp, config: NodeConfig) -> NodeRuntime {
        NodeRuntime {
            app,
            peers: BTreeSet::new(),
            outbox: VecDeque::new(),
            events: VecDeque::new(),
            clock: SimTime::ZERO,
            next_ad: SimTime::ZERO + config.ad_phase,
            ad_interval: config.ad_interval,
            rng: rand::rngs::StdRng::seed_from_u64(config.seed),
        }
    }

    /// An encounter opened: `peer` is now reachable. Idempotent.
    pub fn on_encounter_up(&mut self, peer: PeerId) {
        self.peers.insert(peer.0);
    }

    /// An encounter closed: the middleware tears down any session with
    /// `peer` (journaling the `out_of_range` cause) and the peer leaves
    /// the reachable set. Idempotent.
    pub fn on_encounter_down(&mut self, peer: PeerId) {
        if self.peers.remove(&peer.0) {
            self.app.middleware_mut().on_peer_lost(peer);
        }
    }

    /// Whether `peer` is inside an open encounter.
    pub fn in_contact(&self, peer: PeerId) -> bool {
        self.peers.contains(&peer.0)
    }

    /// Advances the injected clock and emits the advertisement broadcast
    /// if `now` lands exactly on an ad boundary (`phase + k·interval`)
    /// and any peer is in range — the same skip-when-alone semantics the
    /// simulation driver had. Boundaries strictly before `now` that were
    /// never visited are dropped, not emitted late: the pacer (driver
    /// tick or broker step) owns the decision to wake the node on a
    /// boundary.
    pub fn advance_to(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
        while self.next_ad <= now {
            if self.next_ad == now && !self.peers.is_empty() {
                let ad = self.app.middleware().advertisement(now);
                for &p in &self.peers {
                    self.outbox
                        .push_back((PeerId(p), Frame::Advertisement(ad.clone())));
                }
            }
            self.next_ad += self.ad_interval;
        }
    }

    /// The typed frame surface for the simulation driver: feeds `frame`
    /// from `peer` through the middleware with the driver's shared RNG,
    /// queueing replies on the outbox and application events (stamped
    /// `now`) on the event buffer. Returns `false` (frame dropped) when
    /// no open encounter connects the peer — the contact closed while
    /// the frame was in flight.
    pub fn push_frame_in<R: RngCore>(
        &mut self,
        peer: PeerId,
        frame: Frame,
        now: SimTime,
        rng: &mut R,
    ) -> bool {
        if !self.peers.contains(&peer.0) {
            return false;
        }
        self.clock = self.clock.max(now);
        let replies = self
            .app
            .middleware_mut()
            .handle_frame(peer, frame, now, rng);
        for event in self.app.process_events_at(now) {
            self.events.push_back((now, event));
        }
        self.outbox.extend(replies);
        true
    }

    /// The byte surface for real transports: decodes and feeds one wire
    /// frame at the runtime's current clock, using the runtime's own
    /// seeded RNG.
    ///
    /// # Errors
    ///
    /// [`NodeError::Codec`] when the bytes do not decode;
    /// [`NodeError::NotInContact`] when no encounter connects the peer
    /// (the frame is dropped, mirroring the simulation's mid-flight
    /// contact close).
    pub fn push_frame(&mut self, peer: PeerId, bytes: &[u8]) -> Result<(), NodeError> {
        let frame = Frame::decode(bytes).map_err(NodeError::Codec)?;
        // The typed path borrows `self` whole, so lend it the RNG's
        // state and keep what it advanced to.
        let mut rng = self.rng.clone();
        let delivered = self.push_frame_in(peer, frame, self.clock, &mut rng);
        self.rng = rng;
        if delivered {
            Ok(())
        } else {
            Err(NodeError::NotInContact { peer })
        }
    }

    /// Drains the outbox as typed frames (simulation surface).
    pub fn poll_frames(&mut self) -> Vec<(PeerId, Frame)> {
        self.outbox.drain(..).collect()
    }

    /// Drains the outbox as encoded wire frames (transport surface).
    pub fn poll_output(&mut self) -> Vec<(PeerId, Vec<u8>)> {
        self.poll_frames()
            .into_iter()
            .map(|(peer, frame)| (peer, frame.encode()))
            .collect()
    }

    /// Drains buffered application events with the injected time each
    /// was processed at.
    pub fn take_events(&mut self) -> Vec<(SimTime, SosEvent)> {
        self.events.drain(..).collect()
    }

    /// Authors a post at `now` (advancing the clock).
    pub fn post(&mut self, text: &str, now: SimTime) -> MessageId {
        self.clock = self.clock.max(now);
        self.app.post(text, now)
    }

    /// The wrapped application.
    pub fn app(&self) -> &AlleyOopApp {
        &self.app
    }

    /// Mutable application access (observer attachment, subscriptions).
    pub fn app_mut(&mut self) -> &mut AlleyOopApp {
        &mut self.app
    }

    /// Unwraps the application (end of run).
    pub fn into_app(self) -> AlleyOopApp {
        self.app
    }

    /// The middleware's live counters.
    pub fn stats(&self) -> SosStats {
        self.app.middleware().stats()
    }

    /// The injected clock's current value.
    pub fn now(&self) -> SimTime {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alleyoop::cloud::Cloud;
    use sos_core::routing::SchemeKind;
    use sos_obs::journal::ObsEvent;
    use sos_obs::{JournalHandle, NodeObs};

    fn two_nodes(scheme: SchemeKind) -> (NodeRuntime, NodeRuntime) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut cloud = Cloud::new("Test Root CA", [9u8; 32]);
        let mut mk = |i: u32, handle: &str| {
            let app = AlleyOopApp::sign_up(
                &mut cloud,
                PeerId(i),
                handle,
                scheme,
                SimTime::ZERO,
                &mut rng,
            )
            .expect("unique handles");
            NodeRuntime::new(
                app,
                NodeConfig {
                    ad_interval: SimDuration::from_secs(60),
                    ad_phase: SimDuration::from_millis(u64::from(i) * 100),
                    seed: 100 + u64::from(i),
                },
            )
        };
        (mk(0, "alice"), mk(1, "bob"))
    }

    /// Shuttles bytes between two runtimes until both outboxes drain.
    fn pump(a: &mut NodeRuntime, b: &mut NodeRuntime) {
        loop {
            let a_out = a.poll_output();
            let b_out = b.poll_output();
            if a_out.is_empty() && b_out.is_empty() {
                break;
            }
            for (to, bytes) in a_out {
                assert_eq!(to, PeerId(1));
                let _ = b.push_frame(PeerId(0), &bytes);
            }
            for (to, bytes) in b_out {
                assert_eq!(to, PeerId(0));
                let _ = a.push_frame(PeerId(1), &bytes);
            }
        }
    }

    #[test]
    fn bytes_surface_runs_a_full_sync_session() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        let bob_user = bob.app().user_id();
        let alice_user = alice.app().user_id();
        alice.app_mut().follow(bob_user);
        bob.app_mut().follow(alice_user);

        alice.post("hello in vivo", SimTime::from_secs(10));
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));

        // Alice's phase-0 boundary at t=60 emits the ad; the session
        // handshake, browse, and transfer all ride the byte surface.
        alice.advance_to(SimTime::from_secs(60));
        bob.advance_to(SimTime::from_secs(60));
        pump(&mut alice, &mut bob);

        assert_eq!(bob.stats().bundles_received, 1);
        let delivered: Vec<_> = bob
            .take_events()
            .into_iter()
            .filter(|(_, e)| matches!(e, SosEvent::MessageReceived { .. }))
            .collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(bob.app().feed().len(), 1);
    }

    #[test]
    fn ads_skip_when_alone_and_boundaries_never_fire_late() {
        let (mut alice, _) = two_nodes(SchemeKind::Epidemic);
        // No peers: boundary visited, nothing emitted.
        alice.advance_to(SimTime::from_secs(60));
        assert!(alice.poll_frames().is_empty());
        // Peer appears after boundaries 120/180 were skipped over:
        // advancing to a non-boundary time emits nothing retroactively.
        alice.on_encounter_up(PeerId(1));
        alice.advance_to(SimTime::from_secs(190));
        assert!(alice.poll_frames().is_empty());
        // The next exact boundary fires.
        alice.advance_to(SimTime::from_secs(240));
        let out = alice.poll_frames();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Frame::Advertisement(_)));
    }

    #[test]
    fn frames_outside_contact_are_dropped() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));
        alice.advance_to(SimTime::from_secs(60));
        let out = alice.poll_output();
        assert_eq!(out.len(), 1);

        // Contact closes at bob before the ad arrives: dropped, and the
        // typed surface agrees.
        bob.on_encounter_down(PeerId(0));
        let err = bob.push_frame(PeerId(0), &out[0].1).unwrap_err();
        assert!(matches!(err, NodeError::NotInContact { .. }));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let frame = Frame::decode(&out[0].1).unwrap();
        assert!(!bob.push_frame_in(PeerId(0), frame, SimTime::from_secs(60), &mut rng));

        // Garbage bytes are a codec error, not a panic.
        bob.on_encounter_up(PeerId(0));
        let err = bob.push_frame(PeerId(0), b"\xff\xff\xff").unwrap_err();
        assert!(matches!(err, NodeError::Codec(_)));
    }

    #[test]
    fn encounter_down_journals_out_of_range_via_middleware() {
        let (mut alice, mut bob) = two_nodes(SchemeKind::Epidemic);
        let journal = JournalHandle::new();
        bob.app_mut()
            .middleware_mut()
            .attach_obs(NodeObs::new(1, journal.clone()));
        alice.post("x", SimTime::from_secs(1));
        alice.on_encounter_up(PeerId(1));
        bob.on_encounter_up(PeerId(0));
        alice.advance_to(SimTime::from_secs(60));
        bob.advance_to(SimTime::from_secs(60));
        // Bob hears the ad and connects...
        for (_, bytes) in alice.poll_output() {
            bob.push_frame(PeerId(0), &bytes).unwrap();
        }
        let connect = bob.poll_frames();
        assert!(matches!(
            connect.as_slice(),
            [(PeerId(0), Frame::HandshakeInit(_))]
        ));
        // ...and the contact breaks before alice can reply.
        bob.on_encounter_down(PeerId(0));
        assert!(!bob.in_contact(PeerId(0)));
        let reasons: Vec<&str> = journal
            .snapshot()
            .entries()
            .filter_map(|e| match e.event {
                ObsEvent::SessionClose { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, ["out_of_range"]);
        let closed = bob
            .take_events()
            .into_iter()
            .map(|(_, e)| e)
            .chain(bob.app_mut().process_events_at(SimTime::from_secs(60)))
            .filter(|e| matches!(e, SosEvent::SessionClosed { .. }))
            .count();
        assert_eq!(closed, 1);
    }
}
