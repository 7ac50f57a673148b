//! Test support: a scriptable [`Effects`] implementation.
//!
//! `MockEffects` records everything the protocol asks for — sends, timers,
//! deliveries — so unit and integration tests can assert on the exact
//! behaviour of a [`crate::peer::GossipPeer`] without any engine. Sends and
//! timers are stored once, channel-tagged; the historical channel-less
//! accessors ([`MockEffects::take_sent`], [`MockEffects::take_scheduled`],
//! [`MockEffects::sent_of_kind`]) project the tag away so single-channel
//! tests read exactly as before. Multi-peer networks run on the
//! simulator instead, through [`crate::scenario::DiscoveryHarness`].

use desim::{Duration, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, PeerId};

use crate::effects::Effects;
use crate::messages::{GossipMsg, GossipTimer};

/// A recording [`Effects`] for tests.
#[derive(Debug)]
pub struct MockEffects {
    /// The clock handed to the protocol; tests advance it directly.
    pub now: Time,
    /// Every message sent, in order, tagged with its channel.
    pub sent_on: Vec<(ChannelId, PeerId, GossipMsg)>,
    /// Every timer armed, with its delay, tagged with its channel.
    pub scheduled_on: Vec<(Duration, ChannelId, GossipTimer)>,
    /// Block numbers whose content arrived (first receptions).
    pub received: Vec<u64>,
    /// First receptions tagged with their channel.
    pub received_on: Vec<(ChannelId, u64)>,
    /// Blocks delivered in order to the application.
    pub delivered: Vec<BlockRef>,
    /// Deliveries tagged with their channel.
    pub delivered_on: Vec<(ChannelId, u64)>,
    /// Leadership transitions observed.
    pub leadership: Vec<bool>,
    /// Leadership transitions tagged with their channel.
    pub leadership_on: Vec<(ChannelId, bool)>,
    /// Discovery-driven view changes: `(channel, peer, joined)`.
    pub discovery_events: Vec<(ChannelId, PeerId, bool)>,
    /// Snapshots verified and installed, tagged with their channel.
    pub installed: Vec<(ChannelId, fabric_types::snapshot::SnapshotRef)>,
    rng: StdRng,
}

impl MockEffects {
    /// A fresh mock with a deterministic RNG.
    pub fn new(seed: u64) -> Self {
        MockEffects {
            now: Time::ZERO,
            sent_on: Vec::new(),
            scheduled_on: Vec::new(),
            received: Vec::new(),
            received_on: Vec::new(),
            delivered: Vec::new(),
            delivered_on: Vec::new(),
            leadership: Vec::new(),
            leadership_on: Vec::new(),
            discovery_events: Vec::new(),
            installed: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Advances the mock clock.
    pub fn advance(&mut self, d: Duration) {
        self.now += d;
    }

    /// Drains and returns the sent messages, channel tags projected away.
    pub fn take_sent(&mut self) -> Vec<(PeerId, GossipMsg)> {
        self.take_sent_on()
            .into_iter()
            .map(|(_, to, msg)| (to, msg))
            .collect()
    }

    /// Drains and returns the sent messages with their channel tags.
    pub fn take_sent_on(&mut self) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        std::mem::take(&mut self.sent_on)
    }

    /// Drains and returns the armed timers, channel tags projected away.
    pub fn take_scheduled(&mut self) -> Vec<(Duration, GossipTimer)> {
        self.take_scheduled_on()
            .into_iter()
            .map(|(after, _, timer)| (after, timer))
            .collect()
    }

    /// Drains and returns the armed timers with their channel tags.
    pub fn take_scheduled_on(&mut self) -> Vec<(Duration, ChannelId, GossipTimer)> {
        std::mem::take(&mut self.scheduled_on)
    }

    /// Numbers of the blocks delivered so far (any channel).
    pub fn delivered_numbers(&self) -> Vec<u64> {
        self.delivered.iter().map(|b| b.number()).collect()
    }

    /// Messages of a given metrics kind (e.g. `"block"`, `"push-digest"`)
    /// still pending in the record, as `(target, message)` pairs.
    pub fn sent_of_kind(&self, kind: &str) -> Vec<(PeerId, &GossipMsg)> {
        use desim::Message as _;
        self.sent_on
            .iter()
            .filter(|(_, _, m)| m.kind() == kind)
            .map(|(_, to, m)| (*to, m))
            .collect()
    }
}

impl Effects for MockEffects {
    fn now(&self) -> Time {
        self.now
    }

    fn send(&mut self, channel: ChannelId, to: PeerId, msg: GossipMsg) {
        self.sent_on.push((channel, to, msg));
    }

    fn schedule(&mut self, after: Duration, channel: ChannelId, timer: GossipTimer) {
        self.scheduled_on.push((after, channel, timer));
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn block_received(&mut self, channel: ChannelId, block_num: u64) {
        self.received.push(block_num);
        self.received_on.push((channel, block_num));
    }

    fn deliver(&mut self, channel: ChannelId, block: BlockRef) {
        self.delivered_on.push((channel, block.number()));
        self.delivered.push(block);
    }

    fn leadership_changed(&mut self, channel: ChannelId, is_leader: bool) {
        self.leadership.push(is_leader);
        self.leadership_on.push((channel, is_leader));
    }

    fn discovery_event(&mut self, channel: ChannelId, peer: PeerId, joined: bool) {
        self.discovery_events.push((channel, peer, joined));
    }

    fn snapshot_installed(
        &mut self,
        channel: ChannelId,
        snapshot: &fabric_types::snapshot::SnapshotRef,
    ) {
        self.installed.push((channel, snapshot.clone()));
    }
}
