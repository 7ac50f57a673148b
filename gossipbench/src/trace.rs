//! The traced run: a transparent [`desim::Protocol`] wrapper around
//! [`FabricNet`] that times every handler call and books it to the layer
//! the message kind or timer variant belongs to.
//!
//! The wrapper only observes: it forwards every call unchanged, so a
//! traced deployment processes exactly the events of the untraced one
//! (the benchmark checks this on every traced run). Time the engine
//! spends outside any handler — queue pops, network sampling, metrics
//! accounting — is `desim.self_s`.

use std::time::{Duration, Instant};

use desim::{Ctx, NodeId, Protocol};
use fabric_experiments::net::{FabricNet, NetMsg, NetTimer};
use fabric_gossip::messages::{GossipMsg, GossipTimer};

/// The layers a handler call is booked to, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Push dissemination: full blocks, push digests and requests.
    Push,
    /// Periodic pull: hello, digest, request and pulled blocks.
    Pull,
    /// State info, recovery and snapshot transfer.
    Recovery,
    /// Leader heartbeats and election ticks.
    Leadership,
    /// Alive heartbeats and membership anti-entropy.
    Discovery,
    /// A leader receiving a block from the ordering service.
    Intake,
    /// Submission, batching and consensus delivery.
    Orderer,
    /// The client's proposals, endorsements and scheduled churn.
    Workload,
    /// Serial validation and commit of delivered blocks.
    Ledger,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Push,
        Layer::Pull,
        Layer::Recovery,
        Layer::Leadership,
        Layer::Discovery,
        Layer::Intake,
        Layer::Orderer,
        Layer::Workload,
        Layer::Ledger,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Push => "gossip.push",
            Layer::Pull => "gossip.pull",
            Layer::Recovery => "gossip.recovery",
            Layer::Leadership => "gossip.leadership",
            Layer::Discovery => "gossip.discovery",
            Layer::Intake => "gossip.intake",
            Layer::Orderer => "orderer",
            Layer::Workload => "workload",
            Layer::Ledger => "ledger",
        }
    }

    /// The layer a delivered message belongs to.
    pub fn of_msg(msg: &NetMsg) -> Layer {
        match msg {
            NetMsg::Gossip(envelope) => Layer::of_gossip(&envelope.msg),
            NetMsg::DeliverBlock { .. } => Layer::Intake,
            NetMsg::Submit { .. } => Layer::Orderer,
            NetMsg::Propose { .. } | NetMsg::Endorsed { .. } => Layer::Workload,
        }
    }

    /// The layer of a gossip message. The match is exhaustive on purpose:
    /// a new message kind does not compile until it is given a layer.
    fn of_gossip(msg: &GossipMsg) -> Layer {
        match msg {
            GossipMsg::BlockPush { .. }
            | GossipMsg::PushDigest { .. }
            | GossipMsg::PushRequest { .. } => Layer::Push,
            GossipMsg::PullHello { .. }
            | GossipMsg::PullDigestResponse { .. }
            | GossipMsg::PullRequest { .. }
            | GossipMsg::PullResponse { .. } => Layer::Pull,
            GossipMsg::StateInfo { .. }
            | GossipMsg::RecoveryRequest { .. }
            | GossipMsg::RecoveryResponse { .. }
            | GossipMsg::SnapshotRequest { .. }
            | GossipMsg::SnapshotResponse { .. }
            | GossipMsg::SnapshotChunk { .. } => Layer::Recovery,
            GossipMsg::Alive
            | GossipMsg::AliveMsg(_)
            | GossipMsg::MembershipRequest { .. }
            | GossipMsg::MembershipResponse { .. }
            | GossipMsg::MembershipDigest { .. }
            | GossipMsg::MembershipDelta { .. } => Layer::Discovery,
            GossipMsg::LeaderHeartbeat { .. } => Layer::Leadership,
        }
    }

    /// The layer a fired timer belongs to.
    pub fn of_timer(timer: &NetTimer) -> Layer {
        match timer {
            NetTimer::Peer { timer, .. } => match timer {
                GossipTimer::PushFlush | GossipTimer::FetchRetry { .. } => Layer::Push,
                GossipTimer::PullRound | GossipTimer::PullDigestWait { .. } => Layer::Pull,
                GossipTimer::RecoveryRound | GossipTimer::StateInfoRound => Layer::Recovery,
                GossipTimer::AliveRound
                | GossipTimer::DiscoveryRound
                | GossipTimer::AntiEntropyRound => Layer::Discovery,
                GossipTimer::ElectionTick => Layer::Leadership,
            },
            NetTimer::ClientIssue | NetTimer::Churn { .. } => Layer::Workload,
            NetTimer::BatchTimeout { .. } | NetTimer::DeliverCut { .. } => Layer::Orderer,
            NetTimer::CommitDone => Layer::Ledger,
        }
    }
}

/// Handler calls and the wall time spent in them, per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// Handler calls per layer, [`Layer::ALL`] order.
    pub calls: [u64; 9],
    /// Wall time inside those calls, [`Layer::ALL`] order.
    pub busy: [Duration; 9],
}

impl LayerTimes {
    fn add(&mut self, layer: Layer, spent: Duration) {
        let i = layer as usize;
        self.calls[i] += 1;
        self.busy[i] += spent;
    }

    /// Adds another deployment's (or group's) totals to these.
    pub fn absorb(&mut self, other: &LayerTimes) {
        for i in 0..Layer::ALL.len() {
            self.calls[i] += other.calls[i];
            self.busy[i] += other.busy[i];
        }
    }

    /// Wall time inside every handler.
    pub fn total_busy(&self) -> Duration {
        self.busy.iter().sum()
    }
}

/// A protocol the benchmark can deploy: the bare network for the
/// end-to-end run, or the timing wrapper for the traced run.
pub trait Node: Protocol<Msg = NetMsg, Timer = NetTimer> + Send {
    /// Wraps a freshly built network.
    fn wrap(net: FabricNet) -> Self;
    /// The wrapped network.
    fn net(&self) -> &FabricNet;
    /// The wrapped network, mutably (to start it).
    fn net_mut(&mut self) -> &mut FabricNet;
    /// Layer times recorded so far (`None` when not tracing).
    fn layer_times(&self) -> Option<&LayerTimes>;
}

impl Node for FabricNet {
    fn wrap(net: FabricNet) -> Self {
        net
    }

    fn net(&self) -> &FabricNet {
        self
    }

    fn net_mut(&mut self) -> &mut FabricNet {
        self
    }

    fn layer_times(&self) -> Option<&LayerTimes> {
        None
    }
}

/// [`FabricNet`] with every handler call timed and booked to its layer.
#[derive(Debug)]
pub struct Traced {
    net: FabricNet,
    times: LayerTimes,
}

impl Node for Traced {
    fn wrap(net: FabricNet) -> Self {
        Traced {
            net,
            times: LayerTimes::default(),
        }
    }

    fn net(&self) -> &FabricNet {
        &self.net
    }

    fn net_mut(&mut self) -> &mut FabricNet {
        &mut self.net
    }

    fn layer_times(&self) -> Option<&LayerTimes> {
        Some(&self.times)
    }
}

impl Protocol for Traced {
    type Msg = NetMsg;
    type Timer = NetTimer;

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        to: NodeId,
        from: NodeId,
        msg: NetMsg,
    ) {
        let layer = Layer::of_msg(&msg);
        let start = Instant::now();
        self.net.on_message(ctx, to, from, msg);
        self.times.add(layer, start.elapsed());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, node: NodeId, timer: NetTimer) {
        let layer = Layer::of_timer(&timer);
        let start = Instant::now();
        self.net.on_timer(ctx, node, timer);
        self.times.add(layer, start.elapsed());
    }

    fn on_node_status(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, node: NodeId, up: bool) {
        // No workload crashes a node; a status change is booked to
        // recovery, which is what a reboot runs.
        let start = Instant::now();
        self.net.on_node_status(ctx, node, up);
        self.times.add(Layer::Recovery, start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_are_distinct() {
        let mut names: Vec<&str> = Layer::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Layer::ALL.len());
    }

    #[test]
    fn layer_order_matches_the_discriminants() {
        for (i, layer) in Layer::ALL.iter().enumerate() {
            assert_eq!(*layer as usize, i);
        }
    }
}
