//! Leader election and state transfer (StateInfo + recovery).
//!
//! Fabric couples the two concerns: the elected leader is the peer that
//! pulls blocks from the ordering service, while StateInfo height metadata
//! and the recovery (anti-entropy) rounds keep every peer's ledger
//! converging regardless of who leads — including across organization
//! boundaries (§III of the paper). Both live here as one engine because
//! they share the per-peer height view and the crash-volatility rules.
//!
//! The engine owns only election/recovery-private state; everything shared
//! lives in the [`ChannelCore`] passed into every entry point.

use std::collections::{BTreeMap, BTreeSet};

use desim::Time;
use rand::RngExt;

use fabric_types::ids::PeerId;
use fabric_types::snapshot::{Checkpoint, SnapshotAssembler, SnapshotChunk, SnapshotRef};

use crate::channel::ChannelCore;
use crate::effects::Effects;
use crate::messages::{GossipMsg, GossipTimer, ENVELOPE};

/// One snapshot transfer in progress: the request this peer has in flight
/// and, under chunked transfer, the partial assembly. The in-flight guard
/// keeps every RecoveryRound from re-requesting a multi-MB transfer that is
/// merely still in transit; the timeout (doubling per attempt) is what
/// eventually routes around a crashed or pruned server.
#[derive(Debug)]
struct SnapshotTransfer {
    /// The peer the outstanding request went to.
    server: PeerId,
    /// When the outstanding request was sent.
    requested_at: Time,
    /// Requests sent for this transfer so far (drives the backoff).
    attempts: u32,
    /// Set when the server announced its departure — treated as an instant
    /// timeout on the next round.
    server_gone: bool,
    /// Partial chunked assembly; `None` until the first chunk arrives (and
    /// always for whole-snapshot transfers).
    assembler: Option<SnapshotAssembler>,
}

/// Election and state-transfer state of one channel instance.
#[derive(Debug)]
pub struct LeadershipEngine {
    is_leader: bool,
    last_leader_seen: Option<(PeerId, Time)>,
    /// Last advertised ledger height per peer.
    peer_heights: BTreeMap<PeerId, u64>,
    /// Latest checkpoint advertised per peer (snapshot bootstrap only).
    peer_checkpoints: BTreeMap<PeerId, Checkpoint>,
    /// The snapshot transfer currently in flight, if any.
    inflight: Option<SnapshotTransfer>,
    /// Servers that timed out on this transfer — excluded from selection
    /// until the transfer completes or no candidate remains.
    failed_servers: BTreeSet<PeerId>,
}

impl LeadershipEngine {
    /// A fresh engine; `is_leader` seeds static leadership.
    pub fn new(is_leader: bool) -> Self {
        LeadershipEngine {
            is_leader,
            last_leader_seen: None,
            peer_heights: BTreeMap::new(),
            peer_checkpoints: BTreeMap::new(),
            inflight: None,
            failed_servers: BTreeSet::new(),
        }
    }

    /// Whether this channel instance currently acts as leader.
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// Drops what a process crash would lose: leadership is volatile, as is
    /// the height view, the last-heartbeat memory, and any half-finished
    /// snapshot transfer.
    pub fn clear_volatile(&mut self) {
        self.is_leader = false;
        self.last_leader_seen = None;
        self.peer_heights.clear();
        self.peer_checkpoints.clear();
        self.inflight = None;
        self.failed_servers.clear();
    }

    /// A peer advertised its ledger height (and, under snapshot bootstrap,
    /// possibly its latest checkpoint).
    pub fn on_state_info(&mut self, from: PeerId, height: u64, checkpoint: Option<Checkpoint>) {
        let entry = self.peer_heights.entry(from).or_insert(0);
        *entry = (*entry).max(height);
        if let Some(cp) = checkpoint {
            match self.peer_checkpoints.entry(from) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(cp);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    if cp.height > o.get().height {
                        o.insert(cp);
                    }
                }
            }
        }
    }

    /// The StateInfoRound timer: broadcast our height across the channel
    /// (piggybacking our latest checkpoint under snapshot bootstrap).
    pub fn on_state_info_round(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let height = core.store.height();
        let checkpoint = if core.cfg.snapshot.enabled {
            core.snapshot.as_ref().map(|s| s.checkpoint)
        } else {
            None
        };
        // StateInfo metadata crosses organization boundaries (§III).
        let targets = {
            let k = core.cfg.fout;
            core.channel_view.sample(fx.rng(), k)
        };
        for t in targets {
            core.send(fx, t, GossipMsg::StateInfo { height, checkpoint });
        }
        let interval = core.cfg.recovery.state_info_interval;
        core.schedule(fx, interval, GossipTimer::StateInfoRound);
    }

    /// The RecoveryRound timer: if somebody is ahead, ask one of the most
    /// advanced peers for the missing run. Under snapshot bootstrap, a peer
    /// lagging the best advertised checkpoint by at least
    /// [`crate::config::SnapshotConfig::min_lag`] blocks requests the
    /// snapshot instead — O(state + tail) rather than O(chain) replay.
    pub fn on_recovery_round(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let my_height = core.store.height();
        if core.cfg.snapshot.enabled && self.snapshot_round(core, fx, my_height) {
            let interval = core.cfg.recovery.interval;
            core.schedule(fx, interval, GossipTimer::RecoveryRound);
            return;
        }
        let best = self.peer_heights.values().copied().max().unwrap_or(0);
        if best > my_height {
            let candidates: Vec<PeerId> = self
                .peer_heights
                .iter()
                .filter(|(_, h)| **h == best)
                .map(|(p, _)| *p)
                .collect();
            let pick = fx.rng().random_range(0..candidates.len());
            let target = candidates[pick];
            let to = (best - 1).min(my_height + core.cfg.recovery.batch_max - 1);
            core.stats.recovery_requests += 1;
            core.send(
                fx,
                target,
                GossipMsg::RecoveryRequest {
                    from: my_height,
                    to,
                },
            );
        }
        let interval = core.cfg.recovery.interval;
        core.schedule(fx, interval, GossipTimer::RecoveryRound);
    }

    /// The snapshot half of a recovery round. Returns `true` when the
    /// round was consumed by the snapshot path — a transfer is in flight
    /// within its timeout, or a (re-)request just went out. Returns `false`
    /// to fall through to block recovery: the lag trigger didn't fire, or
    /// no eligible server remains (empty checkpoint view, every candidate
    /// timed out, or the requested floor was pruned everywhere).
    fn snapshot_round(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        my_height: u64,
    ) -> bool {
        let min_lag = core.cfg.snapshot.min_lag;
        // `cp_height` is whatever a peer advertised: saturate, never wrap.
        let trigger =
            move |cp_height: u64| cp_height.saturating_add(1) >= my_height.saturating_add(min_lag);
        let best_cp = self
            .peer_checkpoints
            .values()
            .map(|c| c.height)
            .max()
            .unwrap_or(0);
        if !trigger(best_cp) {
            return false;
        }
        // In-flight guard: while a request is pending and inside its
        // (doubling) timeout window, never re-send — a multi-MB response
        // in transit must not be requested again every round.
        if let Some(t) = &self.inflight {
            let backoff = 2u64.saturating_pow(t.attempts.saturating_sub(1).min(10));
            let timeout = core.cfg.snapshot.request_timeout * backoff;
            if !t.server_gone && fx.now().since(t.requested_at) < timeout {
                return true;
            }
            // Timed out (or the server announced its departure): give the
            // server up and move the transfer elsewhere.
            self.failed_servers.insert(t.server);
        }
        // A partial chunked assembly pins a checkpoint; its missing suffix
        // can only come from servers holding *exactly* that checkpoint
        // (chunk plans line up only at identical checkpoints).
        let pinned = self
            .inflight
            .as_ref()
            .and_then(|t| t.assembler.as_ref())
            .map(|a| a.checkpoint().height);
        let candidates_where = |ok: &dyn Fn(u64) -> bool| -> Vec<PeerId> {
            self.peer_checkpoints
                .iter()
                .filter(|(p, c)| ok(c.height) && !self.failed_servers.contains(p))
                .map(|(p, _)| *p)
                .collect()
        };
        let mut resuming = false;
        let mut candidates = Vec::new();
        if let Some(h) = pinned {
            candidates = candidates_where(&|cp| cp == h);
            resuming = !candidates.is_empty();
        }
        if candidates.is_empty() {
            // Fresh request: spread uniformly over *every* peer clearing
            // the trigger floor, not just the best-checkpoint holders —
            // N joiners don't all pile onto one server.
            candidates = candidates_where(&trigger);
        }
        if candidates.is_empty() {
            // Nobody left to ask. Release the transfer and fall back to
            // block recovery; the blacklist resets so a later round can
            // try recovered servers afresh.
            self.inflight = None;
            self.failed_servers.clear();
            return false;
        }
        let pick = candidates[fx.rng().random_range(0..candidates.len())];
        let prior = self.inflight.take();
        if prior.is_some() {
            core.stats.snapshot_resumes += 1;
        }
        let (attempts, assembler) = match prior {
            Some(t) if resuming => (t.attempts + 1, t.assembler),
            Some(t) => (t.attempts + 1, None),
            None => (1, None),
        };
        let (height, from_chunk) = match &assembler {
            Some(a) if resuming => (a.checkpoint().height, a.first_missing()),
            _ => (self.peer_checkpoints[&pick].height, 0),
        };
        core.stats.snapshot_requests += 1;
        core.send(fx, pick, GossipMsg::SnapshotRequest { height, from_chunk });
        self.inflight = Some(SnapshotTransfer {
            server: pick,
            requested_at: fx.now(),
            attempts,
            server_gone: false,
            assembler,
        });
        true
    }

    /// Serves a recovery request with a consecutive run from the store.
    pub fn on_recovery_request(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        lo: u64,
        to: u64,
    ) {
        let blocks = core
            .store
            .consecutive_run(lo, to, core.cfg.recovery.batch_max);
        if !blocks.is_empty() {
            core.stats.blocks_sent += blocks.len() as u64;
            core.send(fx, from, GossipMsg::RecoveryResponse { blocks });
        }
    }

    /// Serves a snapshot request from the channel's retained snapshot.
    /// The served snapshot may be newer than the requested height (the
    /// server checkpointed again since advertising) — never older, so the
    /// requester always gains at least the height it asked for. Under
    /// chunked transfer the snapshot streams as chunk messages of at most
    /// [`crate::config::SnapshotConfig::chunk_size`] wire bytes, starting
    /// at the requested resume offset; a non-zero offset is only honored
    /// at an exact checkpoint match, since chunk plans of different
    /// checkpoints don't line up.
    pub fn on_snapshot_request(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        height: u64,
        from_chunk: u32,
    ) {
        let Some(snapshot) = core.snapshot.clone() else {
            return;
        };
        if snapshot.checkpoint.height < height {
            return;
        }
        if !core.cfg.snapshot.chunked {
            core.stats.snapshots_served += 1;
            core.send(fx, from, GossipMsg::SnapshotResponse { snapshot });
            return;
        }
        if from_chunk > 0 && snapshot.checkpoint.height != height {
            return;
        }
        let budget = core.cfg.snapshot.chunk_size.saturating_sub(ENVELOPE);
        let chunks = SnapshotChunk::plan(&snapshot, budget);
        if (from_chunk as usize) >= chunks.len() {
            return;
        }
        core.stats.snapshots_served += 1;
        for chunk in chunks.into_iter().skip(from_chunk as usize) {
            core.stats.snapshot_chunks_sent += 1;
            core.send(fx, from, GossipMsg::SnapshotChunk { chunk });
        }
    }

    /// A whole snapshot arrived: verify it, install it (jumping the
    /// store's delivery cursor past the absorbed prefix), notify the
    /// embedding so it can seed its ledger, retain the snapshot for
    /// re-serving, and deliver whatever buffered tail just became
    /// contiguous. Stale responses — including duplicates arriving after a
    /// first copy installed — are dropped without touching the counters.
    pub fn on_snapshot_response(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        snapshot: SnapshotRef,
    ) {
        self.install_snapshot(core, fx, snapshot);
    }

    /// One chunk of an in-flight transfer arrived: absorb it into the
    /// assembly (pinning the checkpoint on the first chunk) and, once the
    /// plan is complete, reassemble and install through the same verified
    /// path as a whole-snapshot response. Chunks that are stale,
    /// unsolicited (no transfer in flight — e.g. arriving after install),
    /// foreign to the pinned checkpoint, or duplicates are dropped.
    pub fn on_snapshot_chunk(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        chunk: SnapshotChunk,
    ) {
        if chunk.checkpoint().height < core.store.height() {
            return;
        }
        let Some(transfer) = &mut self.inflight else {
            return;
        };
        let accepted = match &mut transfer.assembler {
            Some(asm) => asm.accept(&chunk),
            None => {
                transfer.assembler = Some(SnapshotAssembler::new(&chunk));
                true
            }
        };
        if !accepted {
            return;
        }
        core.stats.snapshot_chunks_received += 1;
        if !transfer
            .assembler
            .as_ref()
            .is_some_and(SnapshotAssembler::is_complete)
        {
            return;
        }
        let Some(snapshot) = self
            .inflight
            .take()
            .and_then(|t| t.assembler)
            .and_then(|a| a.assemble())
        else {
            return;
        };
        self.install_snapshot(core, fx, SnapshotRef::new(snapshot));
    }

    /// The one verified install path shared by whole-snapshot responses
    /// and completed chunk assemblies: reject stale or tampered state,
    /// then atomically adopt it and release any in-flight transfer.
    fn install_snapshot(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        snapshot: SnapshotRef,
    ) {
        if snapshot.checkpoint.height < core.store.height() {
            return; // stale: we already have everything it covers
        }
        if !snapshot.verify() {
            return; // entries don't hash to the checkpoint — discard
        }
        let run = core.store.adopt_snapshot(snapshot.checkpoint.height);
        core.stats.snapshots_installed += 1;
        fx.snapshot_installed(core.channel, &snapshot);
        core.snapshot = Some(snapshot);
        self.inflight = None;
        self.failed_servers.clear();
        for block in run {
            fx.deliver(core.channel, block);
        }
    }

    /// A peer left the channel: forget its advertised height and, when it
    /// was the leader this peer last heard from, force re-election.
    ///
    /// * **Dynamic election** — the last-heartbeat memory is cleared, so
    ///   the next [`GossipTimer::ElectionTick`] sees no fresh leader and
    ///   the lowest live id stands up without waiting out
    ///   `leader_timeout` (the leave was announced, not a silent crash).
    /// * **Static election** — the roster is **seniority-ordered**
    ///   (initial members as configured — id order in every shipped
    ///   embedding — runtime joiners appended in join order, identically
    ///   on every peer), and its *first* sitting entry claims leadership,
    ///   mirroring an operator re-pinning `orgLeader` after
    ///   decommissioning the old leader. Seniority, not the id minimum:
    ///   a runtime joiner with a low id must not outrank the seated
    ///   leader — and since every peer agrees on the append order, no
    ///   departure can strand the channel with zero or two leaders
    ///   (min-over-roster cannot promise that, because a joiner's own
    ///   roster legitimately ranks it last).
    pub fn on_peer_left(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects, peer: PeerId) {
        self.forget_peer(peer);
        if !core.cfg.election.dynamic
            && !self.is_leader
            && core.roster.first() == Some(&core.self_id)
        {
            self.is_leader = true;
            fx.leadership_changed(core.channel, true);
        }
    }

    /// Drops everything remembered about `peer` — its advertised height
    /// and checkpoint, and, when it was the last leader heard, the
    /// heartbeat memory (so a dynamic election re-runs on the next tick
    /// instead of waiting out `leader_timeout`). A departed peer serving
    /// an in-flight snapshot transfer is marked gone, which the next
    /// recovery round treats as an instant timeout (resume elsewhere
    /// rather than waiting out the full window). The bookkeeping half of
    /// [`Self::on_peer_left`], shared with the discovery-protocol reap
    /// path, which runs its own promotion rule ([`Self::set_static_claim`])
    /// instead of the roster-order one.
    pub fn forget_peer(&mut self, peer: PeerId) {
        self.peer_heights.remove(&peer);
        self.peer_checkpoints.remove(&peer);
        self.failed_servers.remove(&peer);
        if let Some(t) = &mut self.inflight {
            if t.server == peer {
                t.server_gone = true;
            }
        }
        if matches!(self.last_leader_seen, Some((l, _)) if l == peer) {
            self.last_leader_seen = None;
        }
    }

    /// Protocol-discovery static election: enforce `is_leader == senior`,
    /// where `senior` is the caller's discovery-seniority verdict
    /// ([`crate::discovery::DiscoveryEngine::self_is_most_senior`]). Runs
    /// on every discovery step, so leadership converges with the views:
    /// the senior survivor claims within one heartbeat period of reaping
    /// its predecessor, and a stale claimant (deposed while presumed
    /// dead) steps down as soon as its view shows somebody more senior.
    /// Inert under dynamic election.
    pub fn set_static_claim(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects, senior: bool) {
        if core.cfg.election.dynamic || self.is_leader == senior {
            return;
        }
        self.is_leader = senior;
        fx.leadership_changed(core.channel, senior);
    }

    /// Discovery refuted an obituary about **this** peer: while it was
    /// presumed dead, the other members reassigned its seat (static
    /// re-election promoted the next senior member), so any leadership
    /// claim it still holds is stale and must be dropped. Under dynamic
    /// election nothing is forced — the ordinary heartbeat machinery
    /// already resolves competing claimants (the lower id wins).
    pub fn on_self_deposed(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        if !core.cfg.election.dynamic && self.is_leader {
            self.is_leader = false;
            fx.leadership_changed(core.channel, false);
        }
    }

    /// A leader heartbeat arrived.
    pub fn on_leader_heartbeat(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        leader: PeerId,
        now: Time,
    ) {
        self.last_leader_seen = Some((leader, now));
        if self.is_leader && leader < core.self_id {
            // A lower-id leader exists: step down (deterministic tie-break).
            self.is_leader = false;
            fx.leadership_changed(core.channel, false);
        }
    }

    /// The ElectionTick timer: heartbeat while leading; stand up as the
    /// lowest live id when the leader went silent.
    pub fn on_election_tick(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let now = fx.now();
        if self.is_leader {
            self.broadcast_leadership(core, fx);
        } else {
            let leader_fresh = matches!(
                self.last_leader_seen,
                Some((_, at)) if now.since(at) <= core.cfg.election.leader_timeout
            );
            if !leader_fresh {
                // No live leader. The lowest-id peer believed alive stands
                // up; everyone runs the same rule, so exactly the live
                // minimum claims leadership.
                let lowest_alive = core
                    .membership
                    .alive_peers(now)
                    .into_iter()
                    .chain(std::iter::once(core.self_id))
                    .min()
                    .expect("iterator contains self");
                if lowest_alive == core.self_id {
                    self.is_leader = true;
                    fx.leadership_changed(core.channel, true);
                    self.broadcast_leadership(core, fx);
                }
            }
        }
        let interval = core.cfg.election.heartbeat_interval;
        core.schedule(fx, interval, GossipTimer::ElectionTick);
    }

    fn broadcast_leadership(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let me = core.self_id;
        for p in core.membership.peers().to_vec() {
            core.send(fx, p, GossipMsg::LeaderHeartbeat { leader: me });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GossipConfig;
    use crate::testing::MockEffects;
    use fabric_types::block::{Block, BlockRef};
    use fabric_types::ids::ChannelId;

    fn core(self_id: u32) -> ChannelCore {
        ChannelCore::new(
            ChannelId::DEFAULT,
            PeerId(self_id),
            (0..4).map(PeerId).collect(),
            GossipConfig::enhanced_f4(),
        )
    }

    #[test]
    fn engine_alone_requests_recovery_from_the_highest_peer() {
        let mut c = core(1);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        e.on_state_info(PeerId(2), 6, None);
        e.on_state_info(PeerId(2), 4, None); // heights never regress
        e.on_recovery_round(&mut c, &mut fx);
        let sent = fx.take_sent();
        let req = sent
            .iter()
            .find(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. }))
            .expect("a recovery request");
        assert_eq!(req.0, PeerId(2));
        assert!(matches!(
            req.1,
            GossipMsg::RecoveryRequest { from: 1, to: 5 }
        ));
        assert_eq!(c.stats.recovery_requests, 1);
    }

    #[test]
    fn serves_consecutive_runs_and_steps_down_for_lower_ids() {
        let mut c = core(1);
        let mut e = LeadershipEngine::new(true);
        let mut fx = MockEffects::new(1);
        for n in 1..=3 {
            c.store.insert(BlockRef::new(Block::new(
                n,
                fabric_types::crypto::Hash256::ZERO,
                vec![],
            )));
        }
        e.on_recovery_request(&mut c, &mut fx, PeerId(3), 1, 3);
        let sent = fx.take_sent();
        assert!(matches!(
            &sent[0].1,
            GossipMsg::RecoveryResponse { blocks } if blocks.len() == 3
        ));

        e.on_leader_heartbeat(&mut c, &mut fx, PeerId(0), Time::ZERO);
        assert!(!e.is_leader(), "lower-id leader forces a step-down");
        assert_eq!(fx.leadership, vec![false]);
    }

    fn test_snapshot(height: u64) -> SnapshotRef {
        use fabric_types::rwset::{Key, Value, Version};
        use fabric_types::snapshot::{hash_state_entries, Snapshot};
        let entries: Vec<_> = (0..height)
            .map(|i| {
                (
                    Key::from(format!("k{i}").as_str()),
                    Value::from_u64(i),
                    Version::new(i.max(1), 0),
                )
            })
            .collect();
        let state_hash = hash_state_entries(entries.iter().map(|(k, v, ver)| (k, v, *ver)));
        SnapshotRef::new(Snapshot {
            checkpoint: Checkpoint { height, state_hash },
            last_block_hash: fabric_types::crypto::Hash256([height as u8; 32]),
            entries,
        })
    }

    #[test]
    fn lagging_peer_requests_the_snapshot_instead_of_blocks() {
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        e.on_state_info(PeerId(2), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        let sent = fx.take_sent();
        assert!(
            matches!(
                sent.as_slice(),
                [(
                    to,
                    GossipMsg::SnapshotRequest {
                        height: 16,
                        from_chunk: 0
                    }
                )] if *to == PeerId(2)
            ),
            "a fresh joiner far behind the checkpoint asks for the snapshot"
        );
        assert_eq!(c.stats.snapshot_requests, 1);
        assert_eq!(c.stats.recovery_requests, 0);
    }

    #[test]
    fn hostile_max_checkpoint_height_neither_panics_nor_wraps() {
        // Regression: the lag trigger added 1 to an advertised checkpoint
        // height, which overflowed at u64::MAX (a panic in debug builds,
        // a silent wrap to "not lagging" in release).
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        let hostile = Checkpoint {
            height: u64::MAX,
            state_hash: fabric_types::crypto::Hash256::ZERO,
        };
        e.on_state_info(PeerId(2), 17, Some(hostile));
        e.on_recovery_round(&mut c, &mut fx);
        // The claim reads as far ahead, not wrapped around to behind.
        assert_eq!(c.stats.snapshot_requests, 1);
    }

    #[test]
    fn straggler_within_min_lag_keeps_block_recovery() {
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        // Height 12 of 17: only 5 behind the checkpoint at 16 — under the
        // min_lag of 8 once the store is at 12.
        for n in 1..=11 {
            c.store.insert(BlockRef::new(Block::new(
                n,
                fabric_types::crypto::Hash256::ZERO,
                vec![],
            )));
        }
        assert_eq!(c.store.height(), 12);
        e.on_state_info(PeerId(2), 17, Some(test_snapshot(16).checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        let sent = fx.take_sent();
        assert!(
            sent.iter()
                .any(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. })),
            "a near straggler replays blocks, not the snapshot"
        );
        assert_eq!(c.stats.snapshot_requests, 0);
    }

    #[test]
    fn snapshot_request_is_served_from_the_retained_snapshot() {
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        // Nothing to serve yet: the request is dropped.
        e.on_snapshot_request(&mut c, &mut fx, PeerId(3), 8, 0);
        assert!(fx.take_sent().is_empty());
        let snap = test_snapshot(16);
        c.snapshot = Some(snap.clone());
        e.on_snapshot_request(&mut c, &mut fx, PeerId(3), 8, 0);
        let sent = fx.take_sent();
        assert!(matches!(
            &sent[..],
            [(to, GossipMsg::SnapshotResponse { snapshot })]
                if *to == PeerId(3) && SnapshotRef::ptr_eq(snapshot, &snap)
        ));
        assert_eq!(c.stats.snapshots_served, 1);
        // A request for a height above what we hold is not served.
        e.on_snapshot_request(&mut c, &mut fx, PeerId(3), 24, 0);
        assert!(fx.take_sent().is_empty());
    }

    #[test]
    fn snapshot_response_installs_verifies_and_delivers_the_tail() {
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        // A buffered tail block above the snapshot waits for contiguity.
        c.store.insert(BlockRef::new(Block::new(
            17,
            fabric_types::crypto::Hash256::ZERO,
            vec![],
        )));
        let snap = test_snapshot(16);
        e.on_snapshot_response(&mut c, &mut fx, snap.clone());
        assert_eq!(c.store.height(), 18, "floor 16 plus the buffered 17");
        assert_eq!(c.store.snapshot_floor(), 16);
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(fx.installed.len(), 1, "embedding hook fired");
        assert_eq!(fx.delivered_numbers(), vec![17]);
        assert!(
            c.snapshot
                .as_ref()
                .is_some_and(|s| SnapshotRef::ptr_eq(s, &snap)),
            "the installed snapshot is re-servable"
        );

        // A stale snapshot is ignored wholesale.
        e.on_snapshot_response(&mut c, &mut fx, test_snapshot(8));
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(c.store.height(), 18);

        // A tampered snapshot is rejected before touching the store.
        let mut forged = (*test_snapshot(32)).clone();
        forged.entries[0].1 = fabric_types::rwset::Value::from_u64(999);
        e.on_snapshot_response(&mut c, &mut fx, forged.into());
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(c.store.height(), 18);
        assert_eq!(fx.installed.len(), 1);
    }

    #[test]
    fn empty_candidate_set_falls_back_to_block_recovery_instead_of_panicking() {
        // Regression: the lag trigger can fire against an *empty*
        // checkpoint view (no peer has advertised a checkpoint yet). The
        // old code indexed a random element of the empty candidate list
        // and panicked; the round must instead fall through to block
        // recovery.
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(1);
        c.cfg.snapshot.min_lag = 0;
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        e.on_recovery_round(&mut c, &mut fx); // must not panic
        assert_eq!(c.stats.snapshot_requests, 0);
        assert!(fx.take_sent().is_empty(), "nobody to ask, nothing sent");
        // Once a peer advertises blocks (still no checkpoint), the same
        // round runs plain block recovery.
        e.on_state_info(PeerId(2), 6, None);
        e.on_recovery_round(&mut c, &mut fx);
        assert!(fx
            .take_sent()
            .iter()
            .any(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. })));
        assert_eq!(c.stats.snapshot_requests, 0);
    }

    #[test]
    fn inflight_guard_suppresses_request_storms_and_duplicate_installs() {
        use desim::Duration;
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        e.on_state_info(PeerId(2), 17, Some(snap.checkpoint));
        e.on_state_info(PeerId(3), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 1);
        let first_server = fx.take_sent()[0].0;
        // Rounds firing inside the request timeout re-send nothing — the
        // multi-MB response may simply still be in transit.
        for _ in 0..5 {
            fx.advance(Duration::from_secs(1));
            e.on_recovery_round(&mut c, &mut fx);
            assert!(fx.take_sent().is_empty(), "no duplicate request storm");
        }
        assert_eq!(c.stats.snapshot_requests, 1);
        // Past the timeout the transfer moves to the *other* eligible
        // server (the first is held failed) and counts as a resume.
        fx.advance(Duration::from_secs(10));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 2);
        assert_eq!(c.stats.snapshot_resumes, 1);
        let sent = fx.take_sent();
        let retry = sent
            .iter()
            .find(|(_, m)| matches!(m, GossipMsg::SnapshotRequest { .. }))
            .expect("a retried snapshot request");
        assert_ne!(retry.0, first_server, "retry avoids the failed server");
        // Both servers eventually answer: exactly one response installs,
        // the straggler is dropped without double-counting.
        e.on_snapshot_response(&mut c, &mut fx, snap.clone());
        assert_eq!(c.stats.snapshots_installed, 1);
        e.on_snapshot_response(&mut c, &mut fx, snap.clone());
        assert_eq!(c.stats.snapshots_installed, 1, "duplicate install dropped");
        // Caught up: the next round has nothing snapshot-shaped to do.
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 2);
    }

    #[test]
    fn chunked_serving_bounds_message_size_and_reassembly_installs_once() {
        use desim::Message;
        // Server side: the snapshot streams as chunks, none larger on the
        // wire than the configured chunk size.
        let mut sc = core(2);
        sc.cfg = GossipConfig::enhanced_f4().with_chunked_snapshots(8, 256);
        let mut server = LeadershipEngine::new(false);
        let mut sfx = MockEffects::new(2);
        let snap = test_snapshot(16);
        sc.snapshot = Some(snap.clone());
        server.on_snapshot_request(&mut sc, &mut sfx, PeerId(1), 16, 0);
        let sent = sfx.take_sent();
        assert!(sent.len() > 1, "a 16-entry snapshot needs several chunks");
        for (to, m) in &sent {
            assert_eq!(*to, PeerId(1));
            assert!(matches!(m, GossipMsg::SnapshotChunk { .. }));
            assert!(m.wire_size() <= 256, "chunk message exceeds chunk_size");
        }
        assert_eq!(sc.stats.snapshots_served, 1);
        assert_eq!(sc.stats.snapshot_chunks_sent, sent.len() as u64);
        // A resume offset is only honored at the exact checkpoint the
        // plan was cut from (pruned/advanced servers stay silent).
        server.on_snapshot_request(&mut sc, &mut sfx, PeerId(1), 8, 2);
        assert!(sfx.take_sent().is_empty());

        // Joiner side: request in flight, chunks arrive out of order,
        // exactly one verified install results.
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_chunked_snapshots(8, 256);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        // Unsolicited chunks (no transfer in flight) are dropped.
        if let GossipMsg::SnapshotChunk { chunk } = &sent[0].1 {
            e.on_snapshot_chunk(&mut c, &mut fx, chunk.clone());
        }
        assert_eq!(c.stats.snapshot_chunks_received, 0);
        e.on_state_info(PeerId(2), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        fx.take_sent();
        for (_, m) in sent.iter().rev() {
            if let GossipMsg::SnapshotChunk { chunk } = m {
                e.on_snapshot_chunk(&mut c, &mut fx, chunk.clone());
                // Replays of an already-absorbed chunk don't count twice.
                e.on_snapshot_chunk(&mut c, &mut fx, chunk.clone());
            }
        }
        assert_eq!(c.stats.snapshot_chunks_received, sent.len() as u64);
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(c.store.snapshot_floor(), 16);
        assert!(c
            .snapshot
            .as_ref()
            .is_some_and(|s| s.checkpoint == snap.checkpoint));
    }

    #[test]
    fn partial_transfer_resumes_its_missing_suffix_from_another_server() {
        use desim::Duration;
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_chunked_snapshots(8, 256);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        e.on_state_info(PeerId(2), 17, Some(snap.checkpoint));
        e.on_state_info(PeerId(3), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        let first_server = fx.take_sent()[0].0;
        let chunks = SnapshotChunk::plan(&snap, 256 - ENVELOPE);
        assert!(chunks.len() > 2);
        // The server crashes mid-stream: only the first two chunks land.
        for chunk in chunks.iter().take(2) {
            e.on_snapshot_chunk(&mut c, &mut fx, chunk.clone());
        }
        assert_eq!(c.stats.snapshots_installed, 0);
        fx.advance(Duration::from_secs(10));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_resumes, 1);
        let sent = fx.take_sent();
        let (to, m) = sent
            .iter()
            .find(|(_, m)| matches!(m, GossipMsg::SnapshotRequest { .. }))
            .expect("a resume request");
        assert_ne!(*to, first_server, "the resume goes to a different server");
        assert!(
            matches!(
                m,
                GossipMsg::SnapshotRequest {
                    height: 16,
                    from_chunk: 2
                }
            ),
            "the resume asks for the first missing chunk, not the whole plan"
        );
        // The suffix arrives from the second server; the partial assembly
        // completes and installs exactly once.
        for chunk in chunks.iter().skip(2) {
            e.on_snapshot_chunk(&mut c, &mut fx, chunk.clone());
        }
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(c.store.snapshot_floor(), 16);
        assert_eq!(c.stats.snapshot_chunks_received, chunks.len() as u64);
    }

    #[test]
    fn pruned_floor_everywhere_falls_back_to_block_recovery() {
        use desim::Duration;
        // The only checkpoint holder pruned the export this joiner wants:
        // it serves nothing, the transfer times out, and with no eligible
        // server left the round falls back cleanly to block recovery.
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_chunked_snapshots(8, 256);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        e.on_state_info(PeerId(2), 17, Some(test_snapshot(16).checkpoint));
        e.on_state_info(PeerId(3), 17, None);
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 1);
        fx.take_sent();
        fx.advance(Duration::from_secs(10));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 1, "no snapshot retry loop");
        assert!(
            fx.take_sent()
                .iter()
                .any(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. })),
            "blocks flow even though the snapshot floor is gone"
        );
    }

    #[test]
    fn departed_server_releases_the_transfer_without_waiting_out_the_timeout() {
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        e.on_state_info(PeerId(2), 17, Some(snap.checkpoint));
        e.on_state_info(PeerId(3), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        let first_server = fx.take_sent()[0].0;
        // The serving peer announces its departure: its checkpoint is
        // forgotten and the very next round re-requests elsewhere — no
        // waiting out the request timeout for a peer known to be gone.
        e.on_peer_left(&mut c, &mut fx, first_server);
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 2);
        assert_eq!(c.stats.snapshot_resumes, 1);
        let sent = fx.take_sent();
        let retry = sent
            .iter()
            .find(|(_, m)| matches!(m, GossipMsg::SnapshotRequest { .. }))
            .expect("an immediate re-request");
        assert_ne!(retry.0, first_server);
    }

    #[test]
    fn static_departure_of_the_leader_promotes_the_new_lowest_member() {
        // Peer 1 in a {0, 1, 2, 3} roster: peer 0 statically leads.
        let mut c = core(1);
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        // A non-leader departure changes nothing.
        c.roster.retain(|p| *p != PeerId(3));
        e.on_peer_left(&mut c, &mut fx, PeerId(3));
        assert!(!e.is_leader());
        // The leader departs: peer 1 is now the lowest member and stands up.
        c.roster.retain(|p| *p != PeerId(0));
        e.on_peer_left(&mut c, &mut fx, PeerId(0));
        assert!(e.is_leader(), "new lowest member must claim leadership");
        assert_eq!(fx.leadership, vec![true]);
    }

    #[test]
    fn dynamic_departure_clears_the_heartbeat_memory_and_height() {
        let mut c = core(1);
        c.cfg.election.dynamic = true;
        let mut e = LeadershipEngine::new(false);
        let mut fx = MockEffects::new(1);
        e.on_state_info(PeerId(0), 12, None);
        e.on_leader_heartbeat(&mut c, &mut fx, PeerId(0), Time::from_secs(1));
        e.on_peer_left(&mut c, &mut fx, PeerId(0));
        assert!(!e.is_leader(), "dynamic mode re-elects on the next tick");
        // The departed leader's height must not drive recovery requests.
        e.on_recovery_round(&mut c, &mut fx);
        assert!(
            !fx.take_sent()
                .iter()
                .any(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. })),
            "no recovery request toward a departed peer"
        );
        // The very next election tick stands this peer up (lowest alive id
        // among the remaining members believed alive is irrelevant at time
        // zero grace — self is lowest surviving claimant here).
        fx.now = Time::from_secs(100);
        e.on_election_tick(&mut c, &mut fx);
        assert!(e.is_leader(), "announced leave skips the leader timeout");
    }
}
