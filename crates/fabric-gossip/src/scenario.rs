//! Adversarial scenario engine: a scripted **and** seeded-random
//! op-sequence DSL over a multi-peer discovery network, with Byzantine
//! fault injection.
//!
//! The substrate is [`DiscoveryHarness`]: a whole network of
//! [`GossipPeer`]s running on a [`desim::Simulation`] over
//! [`NetworkConfig::ideal`] (zero latency, no bandwidth limit) — the same
//! engine the paper presets run on. The peers are the simulated
//! protocol; the harness only owns the simulation. Faults are desim's
//! own: per-message loss, cut links and partitions in
//! [`desim::NetState`], and crashes as nodes marked down.
//!
//! On top of it sit three layers:
//!
//! * **The op DSL** — [`ScenarioOp`]: `Join`, `Leave`, `Crash` (silent
//!   stop, no leave), `Partition`, `Heal`, `DropLink`, `SetLoss`, `Wait`
//!   and `Assert(predicate)`, applied by
//!   [`DiscoveryHarness::run_script`] between simulation windows. Scripts
//!   are plain data: tests write them literally, property tests generate
//!   them with [`random_scenario`] and shrink them on failure.
//! * **Reusable predicates** — [`Predicate`]: view agreement,
//!   exactly-one-leader, no-resurrection-below-obituary, gap-free
//!   catch-up and convergence-within-bound, checked by
//!   [`DiscoveryHarness::check`].
//! * **Byzantine peers** — the [`Byzantine`] trait wraps a designated
//!   peer's traffic: every protocol-emitted outbound message passes
//!   through [`Byzantine::on_outbound`] (drop, rewrite, amplify), every
//!   delivery to the compromised peer is wiretapped by
//!   [`Byzantine::on_inbound`], and each of the attacker's timer fires
//!   grants an injection opportunity via [`Byzantine::on_step`]. The
//!   underlying peer keeps running the honest protocol — the attacker is
//!   a *man-on-its-own-wire*, exactly the power a compromised process
//!   has. Five discovery-layer behaviors ship: [`StaleReplayer`],
//!   [`ObituaryForger`], [`SelectiveForwarder`], [`Flooder`] and
//!   [`Eclipser`]. On top of them:
//!
//!   - **Coalitions** — several Byzantine peers coordinate through a
//!     shared [`SideChannel`] (pooled wiretap intel plus named signals):
//!     [`CoalitionForger`] forges at the coalition's *pooled* freshest
//!     incarnation and announces what it buried, and every
//!     [`RefutationSuppressor`] scrubs exactly that refutation from its
//!     own wire.
//!   - **Adaptive attackers** — the [`Adaptive`] trait splits a campaign
//!     into `observe` (wiretap) and `act` (react to what was observed);
//!     [`Adaptively`] attaches one as a [`Byzantine`] behavior.
//!     [`LeaderHunter`] targets whichever peer currently claims
//!     leadership and re-forges after observing an incarnation bump.
//!   - **Dissemination-layer attackers** — [`Withholder`] advertises
//!     blocks but never serves payloads toward its targets;
//!     [`Equivocator`] serves conflicting payloads for the same height to
//!     different peers; [`SnapshotPoisoner`] serves corrupted snapshots.
//!     All are classified through the wiretap hooks on
//!     [`GossipMsg::carries_blocks`] / [`GossipMsg::map_blocks`].
//!
//! ## Determinism
//!
//! There is one contract, the engine's: events run in `(time, seq)`
//! order, and every random draw — protocol, attacker and loss — comes
//! from the simulation's single [`desim::RngMode::Unified`] stream seeded
//! with [`DiscoveryHarness::SEED`]. The same scenario over the same
//! harness configuration therefore replays bit-identically, and
//! [`DiscoveryHarness::events_processed`] counts its work.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::rc::Rc;

use desim::{Ctx, Duration, NetworkConfig, NodeId, Simulation, Time};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, ClientId, PeerId, TxId};
use fabric_types::rwset::RwSet;
use fabric_types::snapshot::SnapshotRef;
use fabric_types::transaction::Transaction;

use crate::config::GossipConfig;
use crate::effects::Effects;
use crate::messages::{ChannelMsg, GossipMsg, GossipTimer, PeerAlive};
use crate::peer::GossipPeer;

/// What a [`Byzantine`] behavior sees of the world when it acts: the
/// compromised peer's identity, the simulation clock, the simulation's
/// deterministic RNG, and the ground-truth membership (an omniscient
/// attacker — the strongest adversary the guarantees must survive).
#[derive(Debug)]
pub struct AttackCtx<'a> {
    /// The compromised peer.
    pub self_id: PeerId,
    /// The simulation clock's current instant.
    pub now: Time,
    /// The simulation's RNG (shared with the protocol, deterministic).
    pub rng: &'a mut StdRng,
    /// Ground-truth membership per channel.
    pub members: &'a [Vec<PeerId>],
}

impl AttackCtx<'_> {
    /// Current members of `channel` other than the attacker itself.
    pub fn honest(&self, channel: ChannelId) -> Vec<PeerId> {
        self.members
            .get(channel.0 as usize)
            .map(|m| m.iter().copied().filter(|p| *p != self.self_id).collect())
            .unwrap_or_default()
    }

    /// One uniformly random member of `channel` other than the attacker.
    pub fn pick(&mut self, channel: ChannelId) -> Option<PeerId> {
        let others = self.honest(channel);
        if others.is_empty() {
            None
        } else {
            Some(others[self.rng.random_range(0..others.len())])
        }
    }
}

/// A Byzantine behavior attached to one peer of the harness.
///
/// The compromised peer still runs the honest protocol underneath; the
/// behavior sits on its wire. Default implementations are transparent,
/// so an attacker only overrides the hooks it needs. To add a new
/// attacker: implement this trait, attach it with
/// [`DiscoveryHarness::set_byzantine`], and write a scenario asserting
/// which guarantees survive it (and measuring the ones that degrade).
pub trait Byzantine: fmt::Debug {
    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// Transforms one protocol-emitted outbound message. Return the
    /// messages to actually put on the wire: empty drops it, one passes
    /// or rewrites it, several amplify it.
    fn on_outbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let _ = ctx;
        vec![(channel, to, msg)]
    }

    /// Wiretaps one message delivered to the compromised peer (which
    /// still processes it normally). Returned messages are injected.
    fn on_inbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let _ = (ctx, channel, from, msg);
        Vec::new()
    }

    /// Fires after each of the attacker's own timers: a clocked chance to
    /// inject spontaneous traffic.
    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let _ = ctx;
        Vec::new()
    }
}

/// Passive wiretap shared by the attackers: records, per `(channel,
/// peer)`, the freshest and the stalest claim ever seen in any message
/// delivered to the compromised peer. The wire carries no
/// authentication, so whatever an attacker has heard it can re-emit —
/// verbatim (replay) or doctored (forgery).
#[derive(Debug, Default, Clone)]
pub struct ClaimIntel {
    freshest: BTreeMap<(u16, PeerId), PeerAlive>,
    stalest: BTreeMap<(u16, PeerId), PeerAlive>,
}

impl ClaimIntel {
    /// Records every claim carried by `msg`.
    pub fn observe(&mut self, channel: ChannelId, msg: &GossipMsg) {
        let claims: &[PeerAlive] = match msg {
            GossipMsg::AliveMsg(c) => std::slice::from_ref(c),
            GossipMsg::MembershipRequest { entries, .. }
            | GossipMsg::MembershipResponse { entries, .. }
            | GossipMsg::MembershipDigest { entries, .. }
            | GossipMsg::MembershipDelta { entries, .. } => entries,
            _ => return,
        };
        for c in claims {
            let key = (channel.0, c.peer);
            match self.freshest.get(&key) {
                Some(old) if !c.fresher_than(old) => {}
                _ => {
                    self.freshest.insert(key, *c);
                }
            }
            match self.stalest.get(&key) {
                Some(old) if !old.fresher_than(c) => {}
                _ => {
                    self.stalest.insert(key, *c);
                }
            }
        }
    }

    /// The freshest claim heard about `peer` on `channel`.
    pub fn freshest_of(&self, channel: ChannelId, peer: PeerId) -> Option<PeerAlive> {
        self.freshest.get(&(channel.0, peer)).copied()
    }

    /// The stalest claim heard per peer on `channel` — replay ammunition.
    pub fn stale_claims(&self, channel: ChannelId) -> Vec<PeerAlive> {
        self.stalest
            .iter()
            .filter(|((c, _), _)| *c == channel.0)
            .map(|(_, claim)| *claim)
            .collect()
    }
}

/// Attacker 1 — **stale-incarnation replay**: wiretaps every claim it
/// ever hears and keeps re-emitting the *stalest* version of each as
/// spoofed `AliveMsg`s. Against a correct merge (monotonic
/// `(incarnation, seq)` freshness, obituaries blocking anything not
/// strictly newer) the replays must be inert: in particular a reaped
/// peer's old claims must never resurrect it.
#[derive(Debug, Default)]
pub struct StaleReplayer {
    intel: ClaimIntel,
    burst: usize,
}

impl StaleReplayer {
    /// Replays each stale claim to `burst` random targets per step.
    pub fn new(burst: usize) -> Self {
        StaleReplayer {
            intel: ClaimIntel::default(),
            burst,
        }
    }
}

impl Byzantine for StaleReplayer {
    fn name(&self) -> &'static str {
        "stale-replay"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.intel.observe(channel, msg);
        Vec::new()
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            let channel = ChannelId(c as u16);
            for claim in self.intel.stale_claims(channel) {
                for _ in 0..self.burst {
                    if let Some(target) = ctx.pick(channel) {
                        out.push((channel, target, GossipMsg::AliveMsg(claim)));
                    }
                }
            }
        }
        out
    }
}

/// Attacker 2 — **obituary forgery**: declares a live victim dead by
/// sending unsolicited `MembershipResponse`s whose `dead` list carries
/// the victim at its *current* incarnation (deaths win ties, so honest
/// peers apply it). The surviving guarantee is the refutation bound: the
/// victim finds its own obituary through anti-entropy, bumps its
/// incarnation, and re-enters every view — the attack costs a bounded
/// disruption window, not the victim's membership. `shots` bounds the
/// campaign so scenarios can measure recovery after it ends.
#[derive(Debug)]
pub struct ObituaryForger {
    victim: PeerId,
    shots: u32,
    intel: ClaimIntel,
}

impl ObituaryForger {
    /// Forges `shots` obituary broadcasts against `victim`.
    pub fn new(victim: PeerId, shots: u32) -> Self {
        ObituaryForger {
            victim,
            shots,
            intel: ClaimIntel::default(),
        }
    }
}

impl Byzantine for ObituaryForger {
    fn name(&self) -> &'static str {
        "obituary-forgery"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.intel.observe(channel, msg);
        Vec::new()
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if self.shots == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            let channel = ChannelId(c as u16);
            let Some(claim) = self.intel.freshest_of(channel, self.victim) else {
                continue;
            };
            let forged = PeerAlive {
                peer: self.victim,
                incarnation: claim.incarnation,
                seq: 0,
            };
            // Spread to everyone but the victim: the longer the victim
            // takes to find its own obituary, the longer the disruption.
            for target in ctx.honest(channel) {
                if target != self.victim {
                    out.push((
                        channel,
                        target,
                        GossipMsg::MembershipResponse {
                            entries: Vec::new(),
                            dead: vec![forged],
                        },
                    ));
                }
            }
        }
        if !out.is_empty() {
            self.shots -= 1;
        }
        out
    }
}

/// Attacker 3 — **selective forwarding**: passes heartbeats but silently
/// drops every anti-entropy message (requests, responses, digests,
/// deltas) addressed to the chosen targets. Convergence must survive on
/// redundancy — the targets still exchange views with everyone else —
/// but it measurably slows.
#[derive(Debug)]
pub struct SelectiveForwarder {
    targets: Vec<PeerId>,
}

impl SelectiveForwarder {
    /// Drops anti-entropy traffic toward `targets`.
    pub fn new(targets: Vec<PeerId>) -> Self {
        SelectiveForwarder { targets }
    }
}

impl Byzantine for SelectiveForwarder {
    fn name(&self) -> &'static str {
        "selective-forwarding"
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if msg.is_membership_exchange() && self.targets.contains(&to) {
            Vec::new()
        } else {
            vec![(channel, to, msg)]
        }
    }
}

/// Attacker 4 — **flood amplification**: every heartbeat and
/// anti-entropy request it would send goes out `amplification`-fold to
/// random extra targets, and each timer fire re-broadcasts its own
/// freshest claim. Views and leadership must hold (the spam is
/// protocol-valid and idempotent); the measurable damage is discovery
/// byte inflation.
#[derive(Debug)]
pub struct Flooder {
    amplification: usize,
    intel: ClaimIntel,
}

impl Flooder {
    /// Amplifies discovery traffic `amplification`-fold.
    pub fn new(amplification: usize) -> Self {
        Flooder {
            amplification,
            intel: ClaimIntel::default(),
        }
    }
}

impl Byzantine for Flooder {
    fn name(&self) -> &'static str {
        "flood-amplification"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.intel.observe(channel, msg);
        Vec::new()
    }

    fn on_outbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let amplifiable = matches!(
            msg,
            GossipMsg::AliveMsg(_)
                | GossipMsg::MembershipRequest { .. }
                | GossipMsg::MembershipDigest { .. }
        );
        let mut out = vec![(channel, to, msg.clone())];
        if amplifiable {
            for _ in 1..self.amplification {
                if let Some(target) = ctx.pick(channel) {
                    out.push((channel, target, msg.clone()));
                }
            }
        }
        out
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            let channel = ChannelId(c as u16);
            let Some(own) = self.intel.freshest_of(channel, ctx.self_id) else {
                continue;
            };
            for _ in 0..self.amplification {
                if let Some(target) = ctx.pick(channel) {
                    out.push((channel, target, GossipMsg::AliveMsg(own)));
                }
            }
        }
        out
    }
}

/// Attacker 5 — **eclipse**: the attacker answers a runtime joiner that
/// bootstrapped through it (see [`DiscoveryHarness::join_via`]) with an
/// attacker-only world: its anti-entropy toward the victim carries only
/// the attacker's own claim (the channel "is" just the two of them), and
/// its traffic toward honest peers is scrubbed of the victim's claims so
/// they never learn the joiner exists.
///
/// The eclipse **starves** rather than murders: forging obituaries for
/// the honest members would hand the victim a dead-map full of
/// tombstones, and the tombstone-probe machinery would then contact
/// exactly those "dead" peers — leaking the victim to the honest world
/// and collapsing the eclipse on its own. By showing the victim nothing
/// at all, it has nobody to probe. A fully eclipsed victim (no honest
/// bootstrap seed) therefore cannot escape; one honest seed breaks the
/// eclipse in measurable time, because the attacker only controls its
/// own wire.
#[derive(Debug)]
pub struct Eclipser {
    victim: PeerId,
    intel: ClaimIntel,
}

impl Eclipser {
    /// Eclipses `victim`.
    pub fn new(victim: PeerId) -> Self {
        Eclipser {
            victim,
            intel: ClaimIntel::default(),
        }
    }
}

impl Byzantine for Eclipser {
    fn name(&self) -> &'static str {
        "eclipse"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.intel.observe(channel, msg);
        Vec::new()
    }

    fn on_outbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if to == self.victim {
            // Any view the protocol would share with the victim is
            // replaced by the attacker-only world (no obituaries: a
            // tombstone would give the victim someone to probe).
            if msg.is_membership_exchange() {
                let entries: Vec<PeerAlive> = self
                    .intel
                    .freshest_of(channel, ctx.self_id)
                    .into_iter()
                    .collect();
                return vec![(
                    channel,
                    to,
                    GossipMsg::MembershipResponse {
                        entries,
                        dead: Vec::new(),
                    },
                )];
            }
            return vec![(channel, to, msg)];
        }
        // Toward honest peers: scrub every trace of the victim.
        let victim = self.victim;
        let scrub = |entries: Vec<PeerAlive>| -> Vec<PeerAlive> {
            entries.into_iter().filter(|c| c.peer != victim).collect()
        };
        let scrubbed = match msg {
            GossipMsg::AliveMsg(c) if c.peer == victim => return Vec::new(),
            GossipMsg::MembershipRequest { entries, dead } => GossipMsg::MembershipRequest {
                entries: scrub(entries),
                dead: scrub(dead),
            },
            GossipMsg::MembershipResponse { entries, dead } => GossipMsg::MembershipResponse {
                entries: scrub(entries),
                dead: scrub(dead),
            },
            GossipMsg::MembershipDigest { entries, dead } => GossipMsg::MembershipDigest {
                entries: scrub(entries),
                dead: scrub(dead),
            },
            GossipMsg::MembershipDelta { entries, dead } => GossipMsg::MembershipDelta {
                entries: scrub(entries),
                dead: scrub(dead),
            },
            other => other,
        };
        vec![(channel, to, scrubbed)]
    }
}

/// Zero-latency coordination between the members of a Byzantine
/// *coalition*: pooled wiretap intel plus a small board of named signals,
/// shared outside the gossip wire (colluding processes talk out of band).
/// Cloning the handle shares the underlying state, so every member wired
/// with the same `SideChannel` reads and writes one pool. The harness is
/// single-threaded (behaviors are plain `Box<dyn Byzantine>`), so an
/// `Rc<RefCell<…>>` is the honest model of that shared blackboard.
#[derive(Debug, Clone, Default)]
pub struct SideChannel {
    inner: Rc<RefCell<SideState>>,
}

#[derive(Debug, Default)]
struct SideState {
    intel: ClaimIntel,
    signals: BTreeMap<&'static str, u64>,
}

impl SideChannel {
    /// A fresh, empty coalition blackboard.
    pub fn new() -> Self {
        SideChannel::default()
    }

    /// Pools every claim carried by `msg` into the coalition's shared
    /// intel — what *any* member hears, every member knows.
    pub fn observe(&self, channel: ChannelId, msg: &GossipMsg) {
        self.inner.borrow_mut().intel.observe(channel, msg);
    }

    /// The freshest claim any coalition member ever heard about `peer`.
    pub fn freshest_of(&self, channel: ChannelId, peer: PeerId) -> Option<PeerAlive> {
        self.inner.borrow().intel.freshest_of(channel, peer)
    }

    /// The stalest pooled claim per peer — replay ammunition.
    pub fn stale_claims(&self, channel: ChannelId) -> Vec<PeerAlive> {
        self.inner.borrow().intel.stale_claims(channel)
    }

    /// Posts a named signal (e.g. the incarnation a forger just buried)
    /// for the rest of the coalition to read.
    pub fn post(&self, key: &'static str, value: u64) {
        self.inner.borrow_mut().signals.insert(key, value);
    }

    /// Reads a posted signal, if any member posted it.
    pub fn read(&self, key: &'static str) -> Option<u64> {
        self.inner.borrow().signals.get(key).copied()
    }
}

/// Coalition attacker — **obituary forgery over pooled intel**: like
/// [`ObituaryForger`], but the forged incarnation is the freshest claim
/// *any* coalition member has wiretapped (via the shared
/// [`SideChannel`]), and each shot posts the buried incarnation as the
/// `"forged-incarnation"` signal so [`RefutationSuppressor`]s know
/// exactly which refutation to hunt. Pair it with suppressors sitting on
/// other wires and the victim's incarnation bump must fight through a
/// thinner redundancy margin — the guarantee under test is that it still
/// wins, at a measurably longer disruption window.
#[derive(Debug)]
pub struct CoalitionForger {
    victim: PeerId,
    shots: u32,
    side: SideChannel,
}

impl CoalitionForger {
    /// Forges `shots` obituary broadcasts against `victim`, coordinating
    /// through `side`.
    pub fn new(victim: PeerId, shots: u32, side: SideChannel) -> Self {
        CoalitionForger {
            victim,
            shots,
            side,
        }
    }
}

impl Byzantine for CoalitionForger {
    fn name(&self) -> &'static str {
        "coalition-forger"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.side.observe(channel, msg);
        Vec::new()
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if self.shots == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            let channel = ChannelId(c as u16);
            let Some(claim) = self.side.freshest_of(channel, self.victim) else {
                continue;
            };
            let forged = PeerAlive {
                peer: self.victim,
                incarnation: claim.incarnation,
                seq: 0,
            };
            self.side.post("forged-incarnation", claim.incarnation);
            for target in ctx.honest(channel) {
                if target != self.victim {
                    out.push((
                        channel,
                        target,
                        GossipMsg::MembershipResponse {
                            entries: Vec::new(),
                            dead: vec![forged],
                        },
                    ));
                }
            }
        }
        if !out.is_empty() {
            self.shots -= 1;
        }
        out
    }
}

/// Coalition attacker — **refutation suppression**: feeds its wiretap
/// into the coalition's [`SideChannel`] and scrubs from its *own*
/// outbound anti-entropy every claim about the victim strictly fresher
/// than the incarnation the coalition's forger buried (the
/// `"forged-incarnation"` signal) — the refutation path, selectively.
/// Because [`Byzantine::on_inbound`] is wiretap-only (a compromised
/// process cannot stop a packet that already reached its honest engine),
/// the suppressor can only darken its own wire: the refutation must
/// survive on the redundancy of the remaining honest paths.
#[derive(Debug)]
pub struct RefutationSuppressor {
    victim: PeerId,
    side: SideChannel,
}

impl RefutationSuppressor {
    /// Suppresses `victim`'s refutations, coordinating through `side`.
    pub fn new(victim: PeerId, side: SideChannel) -> Self {
        RefutationSuppressor { victim, side }
    }
}

impl Byzantine for RefutationSuppressor {
    fn name(&self) -> &'static str {
        "refutation-suppressor"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.side.observe(channel, msg);
        Vec::new()
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let Some(floor) = self.side.read("forged-incarnation") else {
            return vec![(channel, to, msg)];
        };
        if !msg.is_membership_exchange() {
            return vec![(channel, to, msg)];
        }
        let victim = self.victim;
        let scrub = |entries: Vec<PeerAlive>| -> Vec<PeerAlive> {
            entries
                .into_iter()
                .filter(|c| c.peer != victim || c.incarnation <= floor)
                .collect()
        };
        let scrubbed = match msg {
            GossipMsg::MembershipRequest { entries, dead } => GossipMsg::MembershipRequest {
                entries: scrub(entries),
                dead,
            },
            GossipMsg::MembershipResponse { entries, dead } => GossipMsg::MembershipResponse {
                entries: scrub(entries),
                dead,
            },
            GossipMsg::MembershipDigest { entries, dead } => GossipMsg::MembershipDigest {
                entries: scrub(entries),
                dead,
            },
            GossipMsg::MembershipDelta { entries, dead } => GossipMsg::MembershipDelta {
                entries: scrub(entries),
                dead,
            },
            other => other,
        };
        vec![(channel, to, scrubbed)]
    }
}

/// An **adaptive** attacker: instead of running a fixed campaign it
/// watches the wire and decides each step from the observed state.
/// [`Adaptive::observe`] sees every message delivered to the compromised
/// peer; [`Adaptive::act`] fires on the attacker's own timers and returns
/// the traffic to inject. Wrap an implementation in [`Adaptively`] to
/// attach it through [`DiscoveryHarness::set_byzantine`].
pub trait Adaptive: fmt::Debug {
    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// Wiretaps one delivery to the compromised peer.
    fn observe(&mut self, channel: ChannelId, from: PeerId, msg: &GossipMsg);

    /// One reactive campaign step, clocked by the attacker's own timers.
    fn act(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)>;
}

/// Adapter attaching an [`Adaptive`] campaign as a [`Byzantine`]
/// behavior: inbound deliveries feed [`Adaptive::observe`], each timer
/// fire runs [`Adaptive::act`], and outbound traffic passes untouched
/// (the adaptive family attacks with injections, not with its own wire).
#[derive(Debug)]
pub struct Adaptively<A: Adaptive>(pub A);

impl<A: Adaptive> Byzantine for Adaptively<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.0.observe(channel, from, msg);
        Vec::new()
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.0.act(ctx)
    }
}

/// Adaptive attacker — **leader hunting**: wiretaps `LeaderHeartbeat`s to
/// learn who currently leads, forges *that* peer's obituary at the
/// freshest incarnation it has heard, and adapts on both axes the issue
/// demands: when leadership moves (say, because its own forgery deposed
/// the previous leader) it re-targets the successor, and when a victim
/// refutes by bumping its incarnation it re-forges at the bumped value —
/// each `(victim, incarnation)` pair is shot at most once, so the
/// campaign only ever acts on *new* observed state. `shots` bounds the
/// total. The guarantees under test: leadership recovers to exactly one
/// claimant and every deposed victim re-enters the view.
#[derive(Debug)]
pub struct LeaderHunter {
    shots: u32,
    intel: ClaimIntel,
    /// Current leader per channel, as wiretapped.
    leader: BTreeMap<u16, PeerId>,
    /// `(channel, victim, incarnation)` triples already shot — firing
    /// again would waste a shot on state the network already refuted.
    fired: HashSet<(u16, u32, u64)>,
}

impl LeaderHunter {
    /// Hunts leaders with a budget of `shots` forgeries.
    pub fn new(shots: u32) -> Self {
        LeaderHunter {
            shots,
            intel: ClaimIntel::default(),
            leader: BTreeMap::new(),
            fired: HashSet::new(),
        }
    }
}

impl Adaptive for LeaderHunter {
    fn name(&self) -> &'static str {
        "leader-hunter"
    }

    fn observe(&mut self, channel: ChannelId, _from: PeerId, msg: &GossipMsg) {
        self.intel.observe(channel, msg);
        if let GossipMsg::LeaderHeartbeat { leader } = msg {
            self.leader.insert(channel.0, *leader);
        }
    }

    fn act(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            if self.shots == 0 {
                break;
            }
            let channel = ChannelId(c as u16);
            let Some(victim) = self.leader.get(&channel.0).copied() else {
                continue; // no leader observed yet: nothing to react to
            };
            if victim == ctx.self_id {
                continue;
            }
            let Some(claim) = self.intel.freshest_of(channel, victim) else {
                continue;
            };
            if !self.fired.insert((channel.0, victim.0, claim.incarnation)) {
                continue; // already shot this life; wait for new state
            }
            let forged = PeerAlive {
                peer: victim,
                incarnation: claim.incarnation,
                seq: 0,
            };
            for target in ctx.honest(channel) {
                if target != victim {
                    out.push((
                        channel,
                        target,
                        GossipMsg::MembershipResponse {
                            entries: Vec::new(),
                            dead: vec![forged],
                        },
                    ));
                }
            }
            self.shots -= 1;
        }
        out
    }
}

/// Dissemination-layer attacker — **withholding**: advertises blocks
/// honestly (push digests and pull digests flow, so targets form fetch
/// and pull plans around the attacker) but never serves the payload:
/// outbound [`GossipMsg::BlockPush`], [`GossipMsg::PullResponse`] and
/// [`GossipMsg::RecoveryResponse`] toward a target are dropped
/// ([`GossipMsg::carries_blocks`]). A stalled pull round re-offers the
/// block next round from a fresh random advertiser, and a stalled push
/// fetch rotates advertisers per retry — completeness must still reach
/// 1.0 through honest redundancy, measurably slower.
#[derive(Debug)]
pub struct Withholder {
    targets: Vec<PeerId>,
}

impl Withholder {
    /// Withholds payloads from `targets` (empty: from everyone).
    pub fn new(targets: Vec<PeerId>) -> Self {
        Withholder { targets }
    }
}

impl Byzantine for Withholder {
    fn name(&self) -> &'static str {
        "withholder"
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if msg.carries_blocks() && (self.targets.is_empty() || self.targets.contains(&to)) {
            Vec::new()
        } else {
            vec![(channel, to, msg)]
        }
    }
}

/// Dissemination-layer attacker — **equivocation**: serves *conflicting*
/// block payloads for the same height to different peers. The attacker
/// cannot forge the ordering service's signature over the header, so its
/// doctored payload keeps the original header (number, previous hash,
/// data hash) with tampered transactions — peers with even ids receive
/// the doctored copy, odd ids the genuine one. Hash verification
/// ([`fabric_types::block::Block::data_intact`]) must reject every
/// doctored payload at the receiver (counted in
/// [`crate::channel::PeerStats::invalid_payloads`]), the store must
/// never hold a non-matching block, and completeness must still reach
/// 1.0 through honest redundancy.
#[derive(Debug, Default)]
pub struct Equivocator;

impl Equivocator {
    /// The doctored copy of `block`: original header, tampered
    /// transaction list (an appended forged transaction the data hash
    /// does not cover).
    fn doctored(block: &BlockRef) -> BlockRef {
        let mut forged = (**block).clone();
        forged.txs.push(Transaction::new(
            TxId(u64::MAX),
            "equivocation",
            ClientId(u32::MAX),
            RwSet::default(),
        ));
        BlockRef::new(forged)
    }
}

impl Byzantine for Equivocator {
    fn name(&self) -> &'static str {
        "equivocator"
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if msg.carries_blocks() && to.0.is_multiple_of(2) {
            vec![(channel, to, msg.map_blocks(|b| Self::doctored(&b)))]
        } else {
            vec![(channel, to, msg)]
        }
    }
}

/// Attacker — **snapshot poisoning**: a malicious bootstrap server. Every
/// snapshot it serves has its state doctored *after* the checkpoint hash
/// was taken, so [`fabric_types::snapshot::Snapshot::verify`] must fail
/// at the joiner: the install is rejected, the in-flight transfer times
/// out, the server lands on the failed list and the joiner resumes from
/// another server (`snapshot_resumes` counts it). Chunked transfers are
/// simply never served — a poisoned chunk would be rejected at assembly
/// anyway; starving the transfer forces the same timeout-and-resume path.
#[derive(Debug, Default)]
pub struct SnapshotPoisoner;

impl Byzantine for SnapshotPoisoner {
    fn name(&self) -> &'static str {
        "snapshot-poisoner"
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        match msg {
            GossipMsg::SnapshotResponse { snapshot } => {
                let mut forged = (*snapshot).clone();
                match forged.entries.first_mut() {
                    Some(entry) => entry.1 = fabric_types::rwset::Value::from_u64(u64::MAX),
                    // An empty state cannot be doctored under the same
                    // checkpoint; starve the transfer instead.
                    None => return Vec::new(),
                }
                vec![(
                    channel,
                    to,
                    GossipMsg::SnapshotResponse {
                        snapshot: fabric_types::snapshot::SnapshotRef::new(forged),
                    },
                )]
            }
            GossipMsg::SnapshotChunk { .. } => Vec::new(),
            other => vec![(channel, to, other)],
        }
    }
}

/// One step of a scenario script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOp {
    /// Runtime join: only the joiner acts (discovery announces it).
    Join {
        /// Channel index.
        channel: usize,
        /// The joining peer.
        peer: PeerId,
    },
    /// Runtime leave: the leaver goes silent; others detect by timeout.
    Leave {
        /// Channel index.
        channel: usize,
        /// The leaving peer.
        peer: PeerId,
    },
    /// Silent process crash: no leave, timers stop, inbound is dropped.
    /// The peer leaves the ground truth of every channel it was in.
    Crash {
        /// The crashing peer.
        peer: PeerId,
    },
    /// Partition the network into groups (cross-group links blocked;
    /// previously blocked links inside a group are restored — the loss
    /// rate is **not** touched).
    Partition {
        /// The groups; links between different groups are blocked.
        groups: Vec<Vec<PeerId>>,
    },
    /// Restore every link and stop message loss.
    Heal,
    /// Block one link, both directions.
    DropLink {
        /// One endpoint.
        a: PeerId,
        /// The other endpoint.
        b: PeerId,
    },
    /// Set the independent per-message loss probability, in thousandths
    /// (integer so generated scripts shrink cleanly).
    SetLoss {
        /// Loss in 1/1000 units (250 = 25 %).
        loss_milli: u32,
    },
    /// Let simulated time pass.
    Wait {
        /// Seconds to run.
        secs: u64,
    },
    /// Check an invariant; a failure aborts the script with the op index.
    Assert(Predicate),
}

/// A reusable invariant over the harness state.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Every current member's view equals the ground truth.
    ViewAgreement {
        /// Channel index.
        channel: usize,
    },
    /// Exactly one current member claims leadership (vacuous when the
    /// channel is empty).
    ExactlyOneLeader {
        /// Channel index.
        channel: usize,
    },
    /// No peer holds an alive claim at an incarnation less than or equal
    /// to an obituary *it itself* ever recorded for that peer — replays
    /// of a reaped life must stay dead.
    NoResurrectionBelowObituary {
        /// Channel index.
        channel: usize,
    },
    /// Every current member's store holds every injected block of the
    /// channel, gap-free up to the injection head.
    GapFreeCatchup {
        /// Channel index.
        channel: usize,
    },
    /// Views converge to the ground truth within the bound, advancing
    /// simulated time as needed.
    ConvergenceWithin {
        /// Channel index.
        channel: usize,
        /// The bound, in simulated seconds.
        secs: u64,
    },
}

/// Why a script aborted: which op, where, and what the predicate said.
#[derive(Debug, Clone)]
pub struct ScenarioError {
    /// Index of the failing op within the script (when known).
    pub op_index: Option<usize>,
    /// Rendering of the failing op.
    pub op: String,
    /// The predicate's failure message.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "op #{i} {}: {}", self.op, self.message),
            None => write!(f, "{}: {}", self.op, self.message),
        }
    }
}

/// Shape of a seeded-random scenario (see [`random_scenario`]).
#[derive(Debug, Clone)]
pub struct ScenarioShape {
    /// The channel the ops act on.
    pub channel: usize,
    /// Ops may involve peers `0..deployment`.
    pub deployment: u32,
    /// Number of random ops before the settle-and-assert epilogue.
    pub ops: usize,
    /// Upper bound for generated `SetLoss` rates, in thousandths.
    pub max_loss_milli: u32,
    /// Whether `Crash` ops may be generated.
    pub allow_crash: bool,
    /// Whether `Partition` ops may be generated.
    pub allow_partition: bool,
    /// Peers that never leave or crash (e.g. an attached attacker).
    pub protected: Vec<PeerId>,
    /// The epilogue's settle window, in seconds.
    pub settle_secs: u64,
}

impl Default for ScenarioShape {
    fn default() -> Self {
        ScenarioShape {
            channel: 0,
            deployment: 8,
            ops: 12,
            max_loss_milli: 300,
            allow_crash: true,
            allow_partition: true,
            protected: Vec::new(),
            settle_secs: 30,
        }
    }
}

/// Generates a seeded-random scenario: `shape.ops` weighted fault ops
/// (each membership op followed by a short wait so incarnations stay
/// distinct), then a `Heal`, a settle window and the three core
/// invariant asserts. The same `(seed, initial, shape)` always yields
/// the same script.
pub fn random_scenario(seed: u64, initial: &[PeerId], shape: &ScenarioShape) -> Vec<ScenarioOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = shape.channel;
    let mut members: Vec<PeerId> = initial.to_vec();
    let mut crashed: HashSet<u32> = HashSet::new();
    let mut ops: Vec<ScenarioOp> = Vec::with_capacity(2 * shape.ops + 5);
    for _ in 0..shape.ops {
        let roll = rng.random_range(0u32..12);
        let op = match roll {
            0..=2 => ScenarioOp::Wait {
                secs: rng.random_range(1u64..4),
            },
            3 | 4 => {
                let candidates: Vec<PeerId> = (0..shape.deployment)
                    .map(PeerId)
                    .filter(|p| {
                        !members.contains(p)
                            && !crashed.contains(&p.0)
                            && !shape.protected.contains(p)
                    })
                    .collect();
                match candidates.is_empty() {
                    true => ScenarioOp::Wait { secs: 1 },
                    false => {
                        let peer = candidates[rng.random_range(0..candidates.len())];
                        members.push(peer);
                        ScenarioOp::Join { channel: c, peer }
                    }
                }
            }
            5 | 6 => match removable(&members, &shape.protected, &mut rng) {
                Some(peer) => {
                    members.retain(|m| *m != peer);
                    ScenarioOp::Leave { channel: c, peer }
                }
                None => ScenarioOp::Wait { secs: 1 },
            },
            7 => ScenarioOp::SetLoss {
                loss_milli: rng.random_range(0..shape.max_loss_milli.max(1)),
            },
            8 => match pick_two(&members, &mut rng) {
                Some((a, b)) => ScenarioOp::DropLink { a, b },
                None => ScenarioOp::Wait { secs: 1 },
            },
            9 => ScenarioOp::Heal,
            10 if shape.allow_crash => match removable(&members, &shape.protected, &mut rng) {
                Some(peer) => {
                    members.retain(|m| *m != peer);
                    crashed.insert(peer.0);
                    ScenarioOp::Crash { peer }
                }
                None => ScenarioOp::Wait { secs: 1 },
            },
            11 if shape.allow_partition && members.len() >= 2 => {
                let mut shuffled = members.clone();
                for i in (1..shuffled.len()).rev() {
                    let j = rng.random_range(0..i + 1);
                    shuffled.swap(i, j);
                }
                let cut = rng.random_range(1..shuffled.len());
                ScenarioOp::Partition {
                    groups: vec![shuffled[..cut].to_vec(), shuffled[cut..].to_vec()],
                }
            }
            _ => ScenarioOp::Wait { secs: 1 },
        };
        let membership_op = matches!(
            op,
            ScenarioOp::Join { .. } | ScenarioOp::Leave { .. } | ScenarioOp::Crash { .. }
        );
        ops.push(op);
        if membership_op {
            ops.push(ScenarioOp::Wait {
                secs: rng.random_range(1u64..3),
            });
        }
    }
    ops.push(ScenarioOp::Heal);
    ops.push(ScenarioOp::Wait {
        secs: shape.settle_secs,
    });
    ops.push(ScenarioOp::Assert(Predicate::ViewAgreement { channel: c }));
    ops.push(ScenarioOp::Assert(Predicate::ExactlyOneLeader {
        channel: c,
    }));
    ops.push(ScenarioOp::Assert(Predicate::NoResurrectionBelowObituary {
        channel: c,
    }));
    ops
}

/// A member that may leave or crash (keeps the channel ≥ 2 strong and
/// never touches protected peers).
fn removable(members: &[PeerId], protected: &[PeerId], rng: &mut StdRng) -> Option<PeerId> {
    if members.len() <= 2 {
        return None;
    }
    let candidates: Vec<PeerId> = members
        .iter()
        .copied()
        .filter(|m| !protected.contains(m))
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.random_range(0..candidates.len())])
    }
}

/// Two distinct members, if the channel has them.
fn pick_two(members: &[PeerId], rng: &mut StdRng) -> Option<(PeerId, PeerId)> {
    if members.len() < 2 {
        return None;
    }
    let a = rng.random_range(0..members.len());
    let mut b = rng.random_range(0..members.len() - 1);
    if b >= a {
        b += 1;
    }
    Some((members[a], members[b]))
}

/// A timer of one peer's channel instance, stamped with the peer's life:
/// a crash or reboot bumps the life, so timers armed by an earlier life
/// never fire into the current one.
#[derive(Debug)]
struct Tick {
    channel: ChannelId,
    timer: GossipTimer,
    life: u64,
}

/// The [`desim::Protocol`] behind the harness: every peer, the attached
/// Byzantine behaviors, the ground truth and what the peers recorded.
#[derive(Debug)]
struct World {
    peers: Vec<GossipPeer>,
    /// Per-peer count of crash and reboot transitions: odd while crashed.
    lives: Vec<u64>,
    delivered: Vec<Vec<BlockRef>>,
    installed: Vec<Vec<SnapshotRef>>,
    /// Ground-truth membership per channel (what the script did), for
    /// convergence assertions and the attackers' omniscience.
    members: Vec<Vec<PeerId>>,
    /// Attached Byzantine behaviors, by peer index.
    byzantine: BTreeMap<usize, Box<dyn Byzantine>>,
    /// Highest injected block number per channel.
    heads: Vec<u64>,
    /// Highest obituary incarnation each peer ever recorded, keyed by
    /// `(observer index, channel, subject)` — the ratchet behind
    /// [`Predicate::NoResurrectionBelowObituary`].
    obituary_floor: BTreeMap<(usize, u16, u32), u64>,
}

type WorldCtx<'c> = Ctx<'c, ChannelMsg, Tick>;

impl World {
    /// Runs one handler of peer `i` with its effects wired into the
    /// simulation, then ratchets the peer's obituary floors.
    fn drive(
        &mut self,
        ctx: &mut WorldCtx<'_>,
        i: usize,
        act: impl FnOnce(&mut GossipPeer, &mut dyn Effects),
    ) {
        let mut fx = PeerFx {
            ctx,
            me: PeerId(i as u32),
            life: self.lives[i],
            attacker: self.byzantine.get_mut(&i),
            members: &self.members,
            delivered: &mut self.delivered[i],
            installed: &mut self.installed[i],
        };
        act(&mut self.peers[i], &mut fx);
        for chan in self.peers[i].channel_ids() {
            let Some(engine) = self.peers[i].discovery_on(chan) else {
                continue;
            };
            for (subject, incarnation) in engine.obituary_iter() {
                let floor = self
                    .obituary_floor
                    .entry((i, chan.0, subject.0))
                    .or_insert(0);
                *floor = (*floor).max(incarnation);
            }
        }
    }

    /// Drops the resurrection floors of one observer (one channel or
    /// all): the floor tracks the obituaries of the observer's *current*
    /// life, and a leave, crash or reboot deliberately loses them.
    fn clear_floors_of(&mut self, observer: usize, channel: Option<u16>) {
        self.obituary_floor
            .retain(|(obs, chan, _), _| *obs != observer || channel.is_some_and(|c| *chan != c));
    }
}

/// Lets the behavior attached to `me` act once and puts what it emits on
/// the wire as-is.
fn attack(
    ctx: &mut WorldCtx<'_>,
    me: PeerId,
    members: &[Vec<PeerId>],
    act: impl FnOnce(&mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)>,
) {
    let now = ctx.now();
    let out = act(&mut AttackCtx {
        self_id: me,
        now,
        rng: ctx.rng(),
        members,
    });
    for (channel, to, msg) in out {
        ctx.send(NodeId(me.0), NodeId(to.0), ChannelMsg { channel, msg });
    }
}

impl desim::Protocol for World {
    type Msg = ChannelMsg;
    type Timer = Tick;

    fn on_message(&mut self, ctx: &mut WorldCtx<'_>, to: NodeId, from: NodeId, msg: ChannelMsg) {
        let (i, from) = (to.index(), PeerId(from.0));
        if let Some(behavior) = self.byzantine.get_mut(&i) {
            attack(ctx, PeerId(to.0), &self.members, |actx| {
                behavior.on_inbound(actx, msg.channel, from, &msg.msg)
            });
        }
        self.drive(ctx, i, |peer, fx| {
            peer.on_channel_message(fx, msg.channel, from, msg.msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut WorldCtx<'_>, node: NodeId, tick: Tick) {
        let i = node.index();
        if tick.life != self.lives[i] {
            return;
        }
        self.drive(ctx, i, |peer, fx| {
            peer.on_channel_timer(fx, tick.channel, tick.timer)
        });
        if let Some(behavior) = self.byzantine.get_mut(&i) {
            attack(ctx, PeerId(node.0), &self.members, |actx| {
                behavior.on_step(actx)
            });
        }
    }
}

/// One peer's [`Effects`]: sends pass through the peer's Byzantine
/// behavior (if any) onto the simulated wire, timers become [`Tick`]s.
struct PeerFx<'a, 'c> {
    ctx: &'a mut WorldCtx<'c>,
    me: PeerId,
    life: u64,
    attacker: Option<&'a mut Box<dyn Byzantine>>,
    members: &'a [Vec<PeerId>],
    delivered: &'a mut Vec<BlockRef>,
    installed: &'a mut Vec<SnapshotRef>,
}

impl Effects for PeerFx<'_, '_> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    fn send(&mut self, channel: ChannelId, to: PeerId, msg: GossipMsg) {
        match self.attacker.as_mut() {
            Some(behavior) => attack(self.ctx, self.me, self.members, |actx| {
                behavior.on_outbound(actx, channel, to, msg)
            }),
            None => self
                .ctx
                .send(NodeId(self.me.0), NodeId(to.0), ChannelMsg { channel, msg }),
        }
    }

    fn schedule(&mut self, after: Duration, channel: ChannelId, timer: GossipTimer) {
        let tick = Tick {
            channel,
            timer,
            life: self.life,
        };
        self.ctx.set_timer(NodeId(self.me.0), after, tick);
    }

    fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }

    fn deliver(&mut self, _channel: ChannelId, block: BlockRef) {
        self.delivered.push(block);
    }

    fn snapshot_installed(&mut self, _channel: ChannelId, snapshot: &SnapshotRef) {
        self.installed.push(snapshot.clone());
    }
}

/// A multi-peer network for discovery-protocol tests and adversarial
/// scenarios, run on a [`desim::Simulation`] over
/// [`NetworkConfig::ideal`] — zero latency, no bandwidth limit.
///
/// Unlike the oracle-style lockstep routers used before the discovery
/// protocol existed, the harness **never** calls
/// [`GossipPeer::on_peer_joined`] / [`GossipPeer::on_peer_left`] on
/// sitting members: a join is only the joiner's own
/// [`GossipPeer::join_channel_live`] (whose discovery engine announces
/// it), and a leave is only the leaver dropping its instance — everyone
/// else must find out through gossip. Peer timers are simulation timers,
/// fired under [`DiscoveryHarness::run_for`] in the engine's `(time, seq)`
/// order; faults are the engine's own: loss
/// ([`desim::Simulation::set_loss`]), cut links and partitions
/// ([`desim::NetState`]) and crashes (a node marked down). Ops apply
/// between windows and route their traffic to quiescence before
/// returning. See the [module docs](self) for the op DSL and the
/// determinism contract.
#[derive(Debug)]
pub struct DiscoveryHarness {
    sim: Simulation<World>,
    /// Independent per-message loss probability currently configured.
    loss: f64,
}

impl DiscoveryHarness {
    /// Seed of the simulation: every protocol, attacker and loss draw
    /// comes from its one [`desim::RngMode::Unified`] stream.
    pub const SEED: u64 = 4242;

    /// Builds and initializes `n` peers; peer `i` starts joined to every
    /// channel whose member list contains it. Every peer's timers are
    /// armed (discovery announces each initial member to its samples) and
    /// the resulting traffic is routed to quiescence at `t = 0`.
    pub fn new(n: usize, memberships: Vec<Vec<PeerId>>, cfg: &GossipConfig) -> Self {
        let peers: Vec<GossipPeer> = (0..n as u32)
            .map(|i| {
                let mut peer = GossipPeer::with_channels(PeerId(i), cfg.clone());
                for (c, members) in memberships.iter().enumerate() {
                    if members.contains(&PeerId(i)) {
                        peer = peer.join_channel(ChannelId(c as u16), members.clone());
                    }
                }
                peer
            })
            .collect();
        let world = World {
            peers,
            lives: vec![0; n],
            delivered: vec![Vec::new(); n],
            installed: vec![Vec::new(); n],
            heads: vec![0; memberships.len()],
            members: memberships,
            byzantine: BTreeMap::new(),
            obituary_floor: BTreeMap::new(),
        };
        let mut harness = DiscoveryHarness {
            sim: Simulation::new(world, NetworkConfig::ideal(n), Self::SEED),
            loss: 0.0,
        };
        harness.act(|world, ctx| {
            for i in 0..n {
                world.drive(ctx, i, |peer, fx| peer.init(fx));
            }
        });
        harness
    }

    /// Applies `f` at the current instant, then delivers whatever it put
    /// on the wire (and everything that triggers) before returning.
    fn act<R>(&mut self, f: impl FnOnce(&mut World, &mut WorldCtx<'_>) -> R) -> R {
        let out = self.sim.with_ctx(f);
        self.sim.run_for(Duration::ZERO);
        out
    }

    fn world(&self) -> &World {
        self.sim.protocol()
    }

    /// The simulation's current instant.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Events the simulation handled so far (deliveries and timers).
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// The gossip state of peer `i`.
    pub fn gossip(&self, i: usize) -> &GossipPeer {
        &self.world().peers[i]
    }

    /// The blocks peer `i` delivered in order, on any channel.
    pub fn delivered(&self, i: usize) -> &[BlockRef] {
        &self.world().delivered[i]
    }

    /// The snapshots peer `i` verified and installed, in order.
    pub fn installed(&self, i: usize) -> &[SnapshotRef] {
        &self.world().installed[i]
    }

    /// Ground-truth members of channel `c` (what the script enacted).
    pub fn members(&self, c: usize) -> &[PeerId] {
        &self.world().members[c]
    }

    /// The current per-message loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// Highest injected block number of channel `c`.
    pub fn head(&self, c: usize) -> u64 {
        self.world().heads[c]
    }

    /// Whether `peer` is crashed.
    pub fn is_crashed(&self, peer: PeerId) -> bool {
        self.world().lives[peer.index()] % 2 == 1
    }

    /// Offered wire bytes of one message kind so far (blocked and lost
    /// messages included — they were put on the wire).
    pub fn wire_bytes_of_kind(&self, kind: &str) -> u64 {
        self.sim.metrics().kind(kind).map_or(0, |k| k.bytes)
    }

    /// Offered wire bytes of every kind so far.
    pub fn offered_bytes(&self) -> u64 {
        self.sim.metrics().network_total_sent()
    }

    /// Offered wire bytes of the discovery protocol (heartbeats plus all
    /// anti-entropy forms).
    pub fn discovery_wire_bytes(&self) -> u64 {
        [
            "alive-msg",
            "membership-request",
            "membership-response",
            "membership-digest",
            "membership-delta",
        ]
        .iter()
        .map(|k| self.wire_bytes_of_kind(k))
        .sum()
    }

    /// Sets the independent per-message loss probability.
    pub fn set_loss(&mut self, loss: f64) {
        self.sim.set_loss(loss);
        self.loss = loss;
    }

    /// Blocks (or unblocks) the link between `a` and `b`, both directions.
    pub fn set_link(&mut self, a: PeerId, b: PeerId, up: bool) {
        let (a, b) = (NodeId(a.0), NodeId(b.0));
        self.sim.with_ctx(|_, ctx| {
            if up {
                ctx.net_mut().set_link_up(a, b);
            } else {
                ctx.net_mut().set_link_down(a, b);
            }
        });
    }

    /// Partitions the network into `groups`: every link between two
    /// different groups is blocked (links inside a group are restored).
    /// A configured loss rate keeps applying — partition and loss
    /// compose.
    pub fn partition(&mut self, groups: &[Vec<PeerId>]) {
        let groups: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|g| g.iter().map(|p| NodeId(p.0)).collect())
            .collect();
        self.sim.with_ctx(|_, ctx| ctx.net_mut().partition(&groups));
    }

    /// Restores every blocked link; the loss rate is untouched.
    pub fn restore_links(&mut self) {
        self.sim.with_ctx(|_, ctx| ctx.net_mut().heal());
    }

    /// Full fault recovery: restores every link **and** stops message
    /// loss.
    pub fn heal(&mut self) {
        self.restore_links();
        self.set_loss(0.0);
    }

    /// Attaches a Byzantine behavior to `peer` (replacing any previous
    /// one). The peer keeps running the honest protocol; the behavior
    /// wraps its wire.
    pub fn set_byzantine(&mut self, peer: PeerId, behavior: Box<dyn Byzantine>) {
        let world = self.sim.protocol_mut();
        assert!(peer.index() < world.peers.len(), "no such peer");
        world.byzantine.insert(peer.index(), behavior);
    }

    /// Detaches the Byzantine behavior of `peer`, if any.
    pub fn clear_byzantine(&mut self, peer: PeerId) {
        self.sim.protocol_mut().byzantine.remove(&peer.index());
    }

    /// Runs the network for `d` of simulated time: fires every timer due
    /// in the window and delivers all resulting traffic.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    /// Runtime join, discovery-style: **only the joiner acts** — it joins
    /// live with the sitting membership as its roster and its discovery
    /// engine announces the join; nobody else is told anything. A crashed
    /// peer rejoining is rebooted first (volatile state lost, stores
    /// kept).
    pub fn join(&mut self, c: usize, peer: PeerId) {
        let roster = self.members(c).to_vec();
        self.join_with_roster(c, peer, roster, false);
    }

    /// Runtime join whose bootstrap roster is `seeds` instead of the full
    /// sitting membership — the eclipse surface: a joiner that only knows
    /// the attacker can only learn the world through the attacker.
    pub fn join_via(&mut self, c: usize, peer: PeerId, seeds: &[PeerId]) {
        self.join_with_roster(c, peer, seeds.to_vec(), false);
    }

    /// Runtime join through the anchor-peer entry
    /// ([`GossipPeer::join_channel_anchored`]): the joiner knows exactly
    /// one seed and must learn the rest of the world through discovery
    /// push-pull. Requires protocol discovery.
    pub fn join_anchored(&mut self, c: usize, peer: PeerId, anchor: PeerId) {
        self.join_with_roster(c, peer, vec![anchor], true);
    }

    fn join_with_roster(&mut self, c: usize, peer: PeerId, roster: Vec<PeerId>, anchored: bool) {
        let idx = peer.index();
        if self.members(c).contains(&peer) || idx >= self.world().peers.len() {
            return;
        }
        let reboot = self.is_crashed(peer);
        let channel = ChannelId(c as u16);
        self.act(|world, ctx| {
            if reboot {
                world.lives[idx] += 1;
                ctx.net_mut().set_up(NodeId(peer.0), true);
                world.peers[idx].on_crash();
            }
            if world.peers[idx].has_channel(channel) {
                world.peers[idx].leave_channel(channel);
            }
            // A fresh life starts with empty obituaries (clear_volatile /
            // a fresh engine), so its resurrection floor restarts too.
            world.clear_floors_of(idx, Some(channel.0));
            world.drive(ctx, idx, |p, fx| match anchored {
                true => p.join_channel_anchored(fx, channel, roster[0]),
                false => p.join_channel_live(fx, channel, roster),
            });
            world.members[c].push(peer);
        });
    }

    /// Publishes `snapshot` as the one `peer` serves on channel `c` (what
    /// the embedding does after its ledger emits a checkpoint). Returns
    /// whether the peer adopted it (see
    /// [`GossipPeer::publish_snapshot_on`]).
    pub fn publish_snapshot(&mut self, c: usize, peer: PeerId, snapshot: SnapshotRef) -> bool {
        let idx = peer.index();
        if idx >= self.world().peers.len() || self.is_crashed(peer) {
            return false;
        }
        self.sim.protocol_mut().peers[idx].publish_snapshot_on(ChannelId(c as u16), snapshot)
    }

    /// Runtime leave, discovery-style: **only the leaver acts** — it drops
    /// its instance and goes silent; the sitting members must detect the
    /// departure by alive-timeout expiry and spread the obituary.
    pub fn leave(&mut self, c: usize, peer: PeerId) {
        let world = self.sim.protocol_mut();
        let Some(pos) = world.members[c].iter().position(|m| *m == peer) else {
            return;
        };
        world.members[c].remove(pos);
        world.peers[peer.index()].leave_channel(ChannelId(c as u16));
        world.clear_floors_of(peer.index(), Some(c as u16));
    }

    /// Silent crash: the peer's node goes down — armed timers never fire
    /// into its current life, inbound messages fall on the floor, and no
    /// leave is announced. It exits the ground truth of every channel (the
    /// network must reap it); its instance state is kept so a later
    /// [`DiscoveryHarness::join`] models a reboot.
    pub fn crash(&mut self, peer: PeerId) {
        let idx = peer.index();
        if idx >= self.world().peers.len() || self.is_crashed(peer) {
            return;
        }
        self.sim.with_ctx(|world, ctx| {
            ctx.net_mut().set_up(NodeId(peer.0), false);
            world.lives[idx] += 1;
            for members in &mut world.members {
                members.retain(|m| *m != peer);
            }
            world.byzantine.remove(&idx);
            // The crash loses the volatile obituaries; the rebooted life's
            // resurrection floor must restart with them.
            world.clear_floors_of(idx, None);
        });
    }

    /// Injects `block` on channel `c` at its lowest current member (as
    /// the ordering service would) and routes to quiescence.
    pub fn inject(&mut self, c: usize, block: BlockRef) {
        let Some(seed_peer) = self.members(c).iter().min().copied() else {
            return;
        };
        self.act(|world, ctx| {
            world.heads[c] = world.heads[c].max(block.number());
            world.drive(ctx, seed_peer.index(), |p, fx| {
                p.on_block_from_orderer_on(fx, ChannelId(c as u16), block)
            });
        });
    }

    /// Peer `m`'s organization view of channel `c`, in id order.
    pub fn view_of(&self, m: PeerId, c: usize) -> Vec<PeerId> {
        let mut view = self
            .gossip(m.index())
            .membership_on(ChannelId(c as u16))
            .map(|mem| mem.peers().to_vec())
            .unwrap_or_default();
        view.sort_unstable();
        view
    }

    /// Whether every current member of channel `c` sees exactly the other
    /// current members — the convergence predicate of the discovery
    /// protocol.
    pub fn views_converged(&self, c: usize) -> bool {
        self.divergent_views(c).is_empty()
    }

    /// Members of channel `c` whose view does **not** match the ground
    /// truth, with their views — for assertion messages.
    pub fn divergent_views(&self, c: usize) -> Vec<(PeerId, Vec<PeerId>)> {
        self.members(c)
            .iter()
            .filter_map(|m| {
                let mut expected: Vec<PeerId> =
                    self.members(c).iter().copied().filter(|p| p != m).collect();
                expected.sort_unstable();
                let got = self.view_of(*m, c);
                (got != expected).then_some((*m, got))
            })
            .collect()
    }

    /// Whether every peer of `group` sees exactly `expected` (minus
    /// itself) on channel `c` — agreement over a subset, e.g. the honest
    /// majority under an eclipse.
    pub fn views_agree_among(&self, c: usize, group: &[PeerId], expected: &[PeerId]) -> bool {
        group.iter().all(|m| {
            let mut want: Vec<PeerId> = expected.iter().copied().filter(|p| p != m).collect();
            want.sort_unstable();
            self.view_of(*m, c) == want
        })
    }

    /// Current leaders of channel `c` among its current members.
    pub fn leaders(&self, c: usize) -> Vec<PeerId> {
        self.members(c)
            .iter()
            .copied()
            .filter(|m| self.gossip(m.index()).is_leader_on(ChannelId(c as u16)))
            .collect()
    }

    /// Runs time forward (in 1 s steps) until the views of channel `c`
    /// converge, up to `limit_secs`. Returns the seconds it took, or
    /// `None` if the bound was exceeded.
    pub fn converge_within(&mut self, c: usize, limit_secs: u64) -> Option<u64> {
        self.secs_until(limit_secs, |net| net.views_converged(c))
    }

    /// Polls `done` once per simulated second (running time in between)
    /// and returns the first second at which it held, up to `limit_secs`.
    pub fn secs_until(
        &mut self,
        limit_secs: u64,
        mut done: impl FnMut(&mut Self) -> bool,
    ) -> Option<u64> {
        for elapsed in 0..=limit_secs {
            if done(self) {
                return Some(elapsed);
            }
            if elapsed < limit_secs {
                self.run_for(Duration::from_secs(1));
            }
        }
        None
    }

    /// Applies one scenario op; only a failed `Assert` returns an error.
    pub fn apply(&mut self, op: &ScenarioOp) -> Result<(), ScenarioError> {
        match op {
            ScenarioOp::Join { channel, peer } => self.join(*channel, *peer),
            ScenarioOp::Leave { channel, peer } => self.leave(*channel, *peer),
            ScenarioOp::Crash { peer } => self.crash(*peer),
            ScenarioOp::Partition { groups } => self.partition(groups),
            ScenarioOp::Heal => self.heal(),
            ScenarioOp::DropLink { a, b } => self.set_link(*a, *b, false),
            ScenarioOp::SetLoss { loss_milli } => self.set_loss(f64::from(*loss_milli) / 1000.0),
            ScenarioOp::Wait { secs } => self.run_for(Duration::from_secs(*secs)),
            ScenarioOp::Assert(pred) => {
                self.check(pred).map_err(|message| ScenarioError {
                    op_index: None,
                    op: format!("{op:?}"),
                    message,
                })?;
            }
        }
        Ok(())
    }

    /// Runs a whole script, aborting at the first failed `Assert` with
    /// its op index.
    pub fn run_script(&mut self, script: &[ScenarioOp]) -> Result<(), ScenarioError> {
        for (i, op) in script.iter().enumerate() {
            self.apply(op).map_err(|mut e| {
                e.op_index = Some(i);
                e
            })?;
        }
        Ok(())
    }

    /// Checks one invariant predicate against the current state
    /// ([`Predicate::ConvergenceWithin`] advances simulated time).
    pub fn check(&mut self, pred: &Predicate) -> Result<(), String> {
        match pred {
            Predicate::ViewAgreement { channel } => {
                let divergent = self.divergent_views(*channel);
                if divergent.is_empty() {
                    Ok(())
                } else {
                    Err(format!(
                        "views diverged from members {:?}: {divergent:?}",
                        self.members(*channel)
                    ))
                }
            }
            Predicate::ExactlyOneLeader { channel } => {
                if self.members(*channel).is_empty() {
                    return Ok(());
                }
                let leaders = self.leaders(*channel);
                if leaders.len() == 1 {
                    Ok(())
                } else {
                    Err(format!(
                        "want exactly one leader among {:?}, got {leaders:?}",
                        self.members(*channel)
                    ))
                }
            }
            Predicate::NoResurrectionBelowObituary { channel } => {
                let chan = ChannelId(*channel as u16);
                for i in 0..self.world().peers.len() {
                    let Some(engine) = self.gossip(i).discovery_on(chan) else {
                        continue;
                    };
                    for claim in engine.claims() {
                        let floor = self.world().obituary_floor.get(&(i, chan.0, claim.peer.0));
                        if let Some(&floor) = floor {
                            if claim.incarnation <= floor {
                                return Err(format!(
                                    "peer {} holds {:?} at incarnation {} ≤ its own past \
                                     obituary {floor} — a resurrection below the obituary",
                                    i, claim.peer, claim.incarnation
                                ));
                            }
                        }
                    }
                }
                Ok(())
            }
            Predicate::GapFreeCatchup { channel } => {
                let head = self.head(*channel);
                let chan = ChannelId(*channel as u16);
                for m in self.members(*channel) {
                    let Some(store) = self.gossip(m.index()).store_on(chan) else {
                        return Err(format!("member {m:?} has no store on channel {channel}"));
                    };
                    for num in 1..=head {
                        if !store.has(num) {
                            return Err(format!(
                                "member {m:?} is missing block {num} of {head} — catch-up gap"
                            ));
                        }
                    }
                }
                Ok(())
            }
            Predicate::ConvergenceWithin { channel, secs } => {
                match self.converge_within(*channel, *secs) {
                    Some(_) => Ok(()),
                    None => Err(format!(
                        "still divergent after {secs}s: {:?}",
                        self.divergent_views(*channel)
                    )),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GossipConfig {
        let mut cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
        cfg.discovery.heartbeat_interval = Duration::from_secs(1);
        cfg.discovery.anti_entropy_interval = Duration::from_secs(1);
        cfg.membership.alive_timeout = Duration::from_secs(5);
        cfg
    }

    #[test]
    fn partition_preserves_a_configured_loss_rate() {
        // Regression: partition() used to call heal(), silently zeroing
        // the loss rate — `set_loss(0.2); partition(...)` ran lossless.
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(4, vec![members.clone()], &cfg());
        net.set_loss(0.2);
        net.partition(&[vec![PeerId(0), PeerId(1)], vec![PeerId(2), PeerId(3)]]);
        assert_eq!(net.loss(), 0.2, "partition must not touch the loss rate");
        net.heal();
        assert_eq!(net.loss(), 0.0, "heal stops loss");
    }

    #[test]
    fn restore_links_is_heal_minus_loss() {
        let members: Vec<PeerId> = (0..3).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(3, vec![members], &cfg());
        net.set_loss(0.1);
        net.set_link(PeerId(0), PeerId(1), false);
        net.restore_links();
        assert_eq!(net.loss(), 0.1, "restore_links leaves loss in place");
    }

    #[test]
    fn identical_scripts_replay_bit_identically() {
        // The determinism contract, end to end: same config, same script
        // → identical views, leaders and byte accounting.
        let script = random_scenario(
            12345,
            &(0..5).map(PeerId).collect::<Vec<_>>(),
            &ScenarioShape::default(),
        );
        let run = || {
            let members: Vec<PeerId> = (0..5).map(PeerId).collect();
            let mut net = DiscoveryHarness::new(8, vec![members], &cfg());
            net.run_script(&script).expect("invariants hold");
            let views: Vec<Vec<PeerId>> = net
                .members(0)
                .to_vec()
                .into_iter()
                .map(|m| net.view_of(m, 0))
                .collect();
            (views, net.leaders(0), net.discovery_wire_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_crash_silences_without_a_leave_and_the_network_reaps_it() {
        let members: Vec<PeerId> = (0..5).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(5, vec![members], &cfg());
        net.run_for(Duration::from_secs(3));
        net.crash(PeerId(4));
        assert!(net.is_crashed(PeerId(4)));
        assert!(
            net.view_of(PeerId(0), 0).contains(&PeerId(4)),
            "a crash is silent: nobody is told"
        );
        net.run_for(Duration::from_secs(15));
        assert!(
            net.views_converged(0),
            "the crashed peer must be reaped: {:?}",
            net.divergent_views(0)
        );
        assert_eq!(net.leaders(0).len(), 1);
    }

    #[test]
    fn a_crashed_peer_reboots_through_join_with_a_new_life() {
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(4, vec![members], &cfg());
        net.run_for(Duration::from_secs(3));
        net.crash(PeerId(3));
        net.run_for(Duration::from_secs(15));
        assert!(net.views_converged(0));
        net.join(0, PeerId(3));
        net.run_for(Duration::from_secs(15));
        assert!(
            net.views_converged(0),
            "reboot must rejoin cleanly: {:?}",
            net.divergent_views(0)
        );
        assert!(net
            .check(&Predicate::NoResurrectionBelowObituary { channel: 0 })
            .is_ok());
    }

    #[test]
    fn random_scenarios_are_reproducible_and_well_formed() {
        let initial: Vec<PeerId> = (0..5).map(PeerId).collect();
        let shape = ScenarioShape::default();
        let a = random_scenario(7, &initial, &shape);
        let b = random_scenario(7, &initial, &shape);
        assert_eq!(a, b, "same seed, same script");
        let c = random_scenario(8, &initial, &shape);
        assert_ne!(a, c, "different seed, different script");
        assert!(
            matches!(a.last(), Some(ScenarioOp::Assert(_))),
            "scripts end in asserts"
        );
        // Protected peers never leave or crash.
        let protected_shape = ScenarioShape {
            protected: vec![PeerId(1)],
            ops: 40,
            ..ScenarioShape::default()
        };
        for seed in 0..10u64 {
            for op in random_scenario(seed, &initial, &protected_shape) {
                match op {
                    ScenarioOp::Leave { peer, .. } | ScenarioOp::Crash { peer } => {
                        assert_ne!(peer, PeerId(1), "protected peer was removed");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn side_channel_clones_share_intel_and_signals() {
        let side = SideChannel::new();
        let clone = side.clone();
        let claim = PeerAlive {
            peer: PeerId(3),
            incarnation: 7,
            seq: 2,
        };
        clone.observe(ChannelId(0), &GossipMsg::AliveMsg(claim));
        assert_eq!(
            side.freshest_of(ChannelId(0), PeerId(3)),
            Some(claim),
            "intel observed through one handle is visible through the other"
        );
        clone.post("forged-incarnation", 7);
        assert_eq!(side.read("forged-incarnation"), Some(7));
        assert_eq!(side.read("unposted"), None);
        assert_eq!(side.stale_claims(ChannelId(0)), vec![claim]);
    }

    #[test]
    fn equivocator_doctoring_keeps_the_header_and_breaks_the_data_hash() {
        use fabric_types::block::Block;
        use fabric_types::crypto::Hash256;
        let honest = BlockRef::new(Block::new(5, Hash256::ZERO, vec![]));
        let doctored = Equivocator::doctored(&honest);
        assert_eq!(doctored.hash(), honest.hash(), "header is signature-bound");
        assert!(honest.data_intact());
        assert!(
            !doctored.data_intact(),
            "tampered txs must not match the data hash"
        );
    }

    #[test]
    fn a_failed_assert_reports_its_op_index() {
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(4, vec![members], &cfg());
        // A leave with no settle time: views cannot agree yet.
        let script = vec![
            ScenarioOp::Wait { secs: 2 },
            ScenarioOp::Leave {
                channel: 0,
                peer: PeerId(3),
            },
            ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
        ];
        let err = net.run_script(&script).expect_err("views still disagree");
        assert_eq!(err.op_index, Some(2));
        assert!(err.to_string().contains("ViewAgreement"), "{err}");
    }
}
