//! Convergence properties of the gossiped discovery protocol, driven
//! through [`DiscoveryHarness`] — no oracle anywhere: joins propagate only
//! through the joiner's own announcements, leaves only through
//! alive-timeout expiry and obituary spreading.
//!
//! The properties (satellites of the discovery tentpole):
//!
//! 1. **View agreement** — under arbitrary join/leave interleavings and
//!    message drops, all correct peers' alive views agree within a bounded
//!    number of heartbeat periods once the loss stops;
//! 2. **Leadership** — exactly one leader per channel survives the same
//!    churn;
//! 3. **No resurrection** — a reaped peer never re-enters any view without
//!    a strictly higher incarnation.

use desim::Duration;
use fabric_gossip::config::GossipConfig;
use fabric_gossip::messages::{GossipMsg, PeerAlive};
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::scenario::DiscoveryHarness;
use fabric_gossip::testing::MockEffects;
use fabric_types::ids::{ChannelId, PeerId};
use proptest::prelude::*;

/// Discovery timers tightened so convergence happens in seconds of
/// scripted time: 1 s heartbeats/anti-entropy, 5 s alive timeout.
fn discovery_cfg() -> GossipConfig {
    let mut cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
    cfg.discovery.heartbeat_interval = Duration::from_secs(1);
    cfg.discovery.anti_entropy_interval = Duration::from_secs(1);
    cfg.membership.alive_timeout = Duration::from_secs(5);
    cfg
}

/// The settle window every scenario is allowed before convergence is
/// asserted: one alive timeout (a silent leaver must expire) plus ten
/// heartbeat periods (announcements and obituaries must spread).
fn settle(net: &mut DiscoveryHarness) {
    net.run_for(Duration::from_secs(5 + 10));
}

#[test]
fn a_join_propagates_through_gossip_alone() {
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = DiscoveryHarness::new(8, vec![members], &discovery_cfg());
    assert!(net.views_converged(0), "initial rosters already agree");

    net.join(0, PeerId(6));
    // Nobody was told: at join time only peers that already received the
    // announcement heartbeat know. Within a bounded number of heartbeat
    // periods the whole channel must know.
    let mut rounds = 0;
    while !net.views_converged(0) {
        rounds += 1;
        assert!(
            rounds <= 10,
            "join must converge within 10 heartbeat periods; stragglers: {:?}",
            net.divergent_views(0)
        );
        net.run_for(Duration::from_secs(1));
    }
    // The joiner itself sees every sitting member too.
    assert_eq!(net.view_of(PeerId(6), 0).len(), 6);
}

#[test]
fn a_leave_is_detected_by_timeout_and_spreads_as_an_obituary() {
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = DiscoveryHarness::new(6, vec![members], &discovery_cfg());
    net.run_for(Duration::from_secs(3)); // let real claims replace seeds

    net.leave(0, PeerId(3));
    assert!(
        net.view_of(PeerId(0), 0).contains(&PeerId(3)),
        "no oracle: right after the leave the others still see the leaver"
    );
    settle(&mut net);
    assert!(
        net.views_converged(0),
        "leaver must be reaped everywhere: {:?}",
        net.divergent_views(0)
    );
    // The obituary survives: some member recorded the death.
    let obituary = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .obituary_of(PeerId(3));
    assert!(
        obituary.is_some(),
        "a reaped peer leaves an obituary behind"
    );
}

#[test]
fn leader_leave_hands_off_to_exactly_one_successor_by_timeout() {
    let members: Vec<PeerId> = (0..5).map(PeerId).collect();
    let mut net = DiscoveryHarness::new(5, vec![members], &discovery_cfg());
    assert_eq!(net.leaders(0), vec![PeerId(0)], "static leader seeded");

    net.leave(0, PeerId(0));
    // A leave is detected by timeout, not callback: immediately after, the
    // channel is still (stalely) led by nobody present.
    assert!(net.leaders(0).is_empty());
    settle(&mut net);
    assert_eq!(
        net.leaders(0),
        vec![PeerId(1)],
        "the most senior sitting member stands up once the leaver expires"
    );
    assert!(net.views_converged(0));
}

#[test]
fn rejoin_after_reap_carries_a_strictly_higher_incarnation() {
    let members: Vec<PeerId> = (0..4).map(PeerId).collect();
    let mut net = DiscoveryHarness::new(4, vec![members], &discovery_cfg());
    net.run_for(Duration::from_secs(3));
    // Capture the first life's incarnation as the sitting members saw it.
    let first_life = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(PeerId(3))
        .expect("peer 3 heartbeated")
        .incarnation;

    net.leave(0, PeerId(3));
    settle(&mut net);
    assert!(net.views_converged(0), "leaver reaped everywhere");

    net.join(0, PeerId(3));
    settle(&mut net);
    assert!(
        net.views_converged(0),
        "rejoin must converge: {:?}",
        net.divergent_views(0)
    );
    let second_life = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(PeerId(3))
        .expect("second life visible")
        .incarnation;
    assert!(
        second_life > first_life,
        "no resurrection without a higher incarnation: {first_life} -> {second_life}"
    );
}

#[test]
fn a_partitioned_minority_is_reaped_and_resurrects_on_heal() {
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = DiscoveryHarness::new(6, vec![members.clone()], &discovery_cfg());
    net.run_for(Duration::from_secs(3));

    // Cut peer 5 off. The majority reaps it; it reaps the majority.
    net.partition(&[(0..5).map(PeerId).collect::<Vec<_>>(), vec![PeerId(5)]]);
    net.run_for(Duration::from_secs(12));
    assert!(
        !net.view_of(PeerId(0), 0).contains(&PeerId(5)),
        "majority reaps the cut-off peer"
    );

    // Heal: the refutation machinery (obituary about self → higher
    // incarnation) brings it back without any join event.
    net.heal();
    net.run_for(Duration::from_secs(20));
    assert!(
        net.views_converged(0),
        "views must re-agree after the partition heals: {:?}",
        net.divergent_views(0)
    );
    assert_eq!(net.leaders(0).len(), 1, "and exactly one leader remains");
}

/// [`discovery_cfg`] with the byte-lean wire format: delta anti-entropy
/// plus adaptive heartbeat cadence.
fn delta_cfg() -> GossipConfig {
    let mut cfg = discovery_cfg();
    cfg.discovery.delta = true;
    cfg.discovery.adaptive_heartbeat = true;
    cfg
}

#[test]
fn delta_anti_entropy_converges_like_full_under_loss() {
    // The same scripted churn, one network per wire format, identical
    // loss: both must converge to the identical ground truth.
    for cfg in [discovery_cfg(), delta_cfg()] {
        let members: Vec<PeerId> = (0..5).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(8, vec![members], &cfg);
        net.set_loss(0.2);
        net.join(0, PeerId(5));
        net.run_for(Duration::from_secs(4));
        net.leave(0, PeerId(0));
        net.run_for(Duration::from_secs(4));
        net.join(0, PeerId(6));
        net.heal(); // loss stops; convergence must follow
        net.run_for(Duration::from_secs(30));
        assert!(
            net.views_converged(0),
            "delta={} failed to converge: {:?}",
            cfg.discovery.delta,
            net.divergent_views(0)
        );
        assert_eq!(net.leaders(0).len(), 1);
    }
}

#[test]
fn delta_mode_partition_heals_through_digest_tombstone_probes() {
    // The reconnection path under delta anti-entropy: the tombstone probe
    // is a digest, and the obituary the cut-off peer finds in it drives
    // the refutation exactly as the full-view probe did.
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = DiscoveryHarness::new(6, vec![members], &delta_cfg());
    net.run_for(Duration::from_secs(3));
    net.partition(&[(0..5).map(PeerId).collect::<Vec<_>>(), vec![PeerId(5)]]);
    net.run_for(Duration::from_secs(12));
    assert!(
        !net.view_of(PeerId(0), 0).contains(&PeerId(5)),
        "majority reaps the cut-off peer"
    );
    net.heal();
    net.run_for(Duration::from_secs(30));
    assert!(
        net.views_converged(0),
        "delta-mode views must re-agree after the heal: {:?}",
        net.divergent_views(0)
    );
    assert_eq!(net.leaders(0).len(), 1);
}

#[test]
fn adaptive_cadence_spends_fewer_heartbeat_bytes_on_a_quiet_channel() {
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let quiet_window = Duration::from_secs(60);
    let alive_bytes = |cfg: &GossipConfig| -> u64 {
        let mut net = DiscoveryHarness::new(6, vec![members.clone()], cfg);
        net.run_for(quiet_window);
        (0..6)
            .map(|i| {
                net.gossip(i)
                    .stats_on(ChannelId(0))
                    .map_or(0, |s| s.bytes_of_kind("alive-msg"))
            })
            .sum()
    };
    let fixed = alive_bytes(&discovery_cfg());
    let adaptive = alive_bytes(&delta_cfg());
    assert!(
        adaptive < fixed,
        "a quiet channel must heartbeat less under adaptive cadence: {adaptive} >= {fixed}"
    );
    // The back-off is bounded (cap = alive_timeout / 3 ≈ 1.67 s over a 1 s
    // base): the quiet channel still heartbeats at a meaningful fraction
    // of the fixed cadence, it does not fall silent.
    assert!(
        adaptive * 4 > fixed,
        "adaptive cadence collapsed too far: {adaptive} vs {fixed}"
    );
}

#[test]
fn adaptive_cadence_never_delays_true_death_detection_beyond_the_timeout_bound() {
    let cfg = delta_cfg();
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = DiscoveryHarness::new(6, vec![members], &cfg);
    // A long quiet stretch engages the maximum back-off everywhere.
    net.run_for(Duration::from_secs(60));
    assert!(net.views_converged(0));

    // A true death: the peer goes silent with every cadence backed off.
    net.leave(0, PeerId(3));
    let timeout = cfg.membership.alive_timeout;
    // Nothing may be reaped before the alive timeout has elapsed...
    net.run_for(timeout - Duration::from_secs(1));
    assert!(
        net.view_of(PeerId(0), 0).contains(&PeerId(3)),
        "a leave cannot be detected before the alive timeout"
    );
    // ...and detection lags the timeout by at most one (clamped) backed-off
    // sweep interval — alive_timeout / 3 by construction — plus the round
    // in flight. Well before the settle window the leaver must be gone
    // from the detector's view and, shortly after, from every view.
    let clamp = timeout / 3;
    net.run_for(Duration::from_secs(1) + clamp + cfg.discovery.heartbeat_interval);
    assert!(
        !net.view_of(PeerId(0), 0).contains(&PeerId(3)),
        "backed-off cadence delayed true-death detection past timeout + clamped interval"
    );
    net.run_for(Duration::from_secs(15));
    assert!(
        net.views_converged(0),
        "obituary must still spread everywhere: {:?}",
        net.divergent_views(0)
    );
}

/// One scripted churn step: kind 0 = join, 1 = leave, 2 = just let time
/// pass. The peer operand picks from the whole deployment.
fn apply_op(net: &mut DiscoveryHarness, op: (u8, u32), keep_one: bool) {
    let (kind, peer) = op;
    match kind {
        0 => net.join(0, PeerId(peer)),
        1 => {
            if !(keep_one && net.members(0).len() <= 1) {
                net.leave(0, PeerId(peer));
            }
        }
        _ => net.run_for(Duration::from_secs(1)),
    }
}

proptest! {
    /// Under arbitrary join/leave interleavings with lossy links, once the
    /// loss stops every correct peer's alive view agrees with the ground
    /// truth within a bounded settle window, exactly one leader stands,
    /// and no peer ever runs two lives under one incarnation.
    #[test]
    fn churn_with_drops_converges_to_agreement_and_one_leader(
        ops in proptest::collection::vec((0u8..3, 0u32..8), 1..20),
        loss_milli in 0u32..300,
    ) {
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(8, vec![members], &discovery_cfg());
        net.set_loss(loss_milli as f64 / 1000.0);
        for op in ops {
            apply_op(&mut net, op, true);
            net.run_for(Duration::from_secs(1));
        }
        // Loss stops; the protocol must converge within the settle window
        // (drops during churn may have reaped live peers — the refutation
        // path has to repair exactly that).
        net.heal();
        net.run_for(Duration::from_secs(30));
        prop_assert!(
            net.views_converged(0),
            "views diverged: {:?} vs members {:?}",
            net.divergent_views(0),
            net.members(0)
        );
        if !net.members(0).is_empty() {
            let leaders = net.leaders(0);
            prop_assert!(
                leaders.len() == 1,
                "want exactly one leader, got {:?} among {:?}",
                leaders,
                net.members(0)
            );
        }
    }

    /// No reaped peer resurrects without a higher incarnation: after a
    /// leave is fully absorbed, replay windows of arbitrary length change
    /// nothing — the departed peer stays out of every view until (and
    /// unless) it rejoins, and a rejoin always shows a strictly higher
    /// incarnation than the obituary.
    #[test]
    fn reaped_peers_stay_dead_until_a_strictly_newer_life(
        silent_secs in 1u64..20,
        rejoin_raw in 0u32..2,
    ) {
        let members: Vec<PeerId> = (0..5).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(5, vec![members], &discovery_cfg());
        net.run_for(Duration::from_secs(3));
        net.leave(0, PeerId(4));
        net.run_for(Duration::from_secs(16));
        prop_assert!(net.views_converged(0), "leaver reaped everywhere");
        let obituary = net
            .gossip(0)
            .discovery_on(ChannelId(0))
            .unwrap()
            .obituary_of(PeerId(4))
            .expect("an obituary was recorded");

        // Arbitrary quiet time: stale state must not decay into a
        // resurrection.
        net.run_for(Duration::from_secs(silent_secs));
        for m in net.members(0).to_vec() {
            prop_assert!(
                !net.view_of(m, 0).contains(&PeerId(4)),
                "peer {m} resurrected a reaped peer without a new life"
            );
        }

        if rejoin_raw == 1 {
            net.join(0, PeerId(4));
            net.run_for(Duration::from_secs(15));
            prop_assert!(net.views_converged(0), "{:?}", net.divergent_views(0));
            let new_life = net
                .gossip(0)
                .discovery_on(ChannelId(0))
                .unwrap()
                .claim_of(PeerId(4))
                .expect("new life visible")
                .incarnation;
            prop_assert!(new_life > obituary, "{new_life} must exceed {obituary}");
        }
    }

    /// The delta wire format inherits the full exchange's convergence
    /// guarantee: arbitrary churn with lossy links still settles to view
    /// agreement and one leader once the loss stops.
    #[test]
    fn churn_with_drops_converges_under_delta_anti_entropy(
        ops in proptest::collection::vec((0u8..3, 0u32..8), 1..12),
        loss_milli in 0u32..300,
    ) {
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = DiscoveryHarness::new(8, vec![members], &delta_cfg());
        net.set_loss(loss_milli as f64 / 1000.0);
        for op in ops {
            apply_op(&mut net, op, true);
            net.run_for(Duration::from_secs(1));
        }
        net.heal();
        net.run_for(Duration::from_secs(30));
        prop_assert!(
            net.views_converged(0),
            "delta views diverged: {:?} vs members {:?}",
            net.divergent_views(0),
            net.members(0)
        );
        if !net.members(0).is_empty() {
            let leaders = net.leaders(0);
            prop_assert!(leaders.len() == 1, "want one leader, got {:?}", leaders);
        }
    }

    /// Cross-channel isolation survives discovery churn: claims, joins and
    /// obituaries of one channel never touch another channel's views.
    #[test]
    fn discovery_stays_channel_scoped(
        ops in proptest::collection::vec((0u8..3, 0u32..6), 1..15),
    ) {
        // Channel 0 over peers 0..4, channel 1 over peers 4..8; churn only
        // channel 0.
        let memberships: Vec<Vec<PeerId>> = vec![
            (0..4).map(PeerId).collect(),
            (4..8).map(PeerId).collect(),
        ];
        let baseline: Vec<Vec<PeerId>> = (4..8)
            .map(|m| {
                let mut v: Vec<PeerId> =
                    (4..8).map(PeerId).filter(|p| p.0 != m).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut net = DiscoveryHarness::new(8, memberships, &discovery_cfg());
        for op in ops {
            apply_op(&mut net, op, true);
            net.run_for(Duration::from_secs(1));
        }
        net.run_for(Duration::from_secs(15));
        // Channel 1 never churned: every member still sees exactly its
        // original roster, whatever channel 0 went through.
        for (i, m) in (4..8).enumerate() {
            prop_assert_eq!(
                net.view_of(PeerId(m), 1),
                baseline[i].clone(),
                "channel 1 view of peer {} was disturbed by channel 0 churn",
                m
            );
        }
        prop_assert_eq!(net.leaders(1), vec![PeerId(4)]);
    }

    /// Adversarial reordering of the delta wire format: a delayed stale
    /// `MembershipDelta` arriving after a newer full exchange must never
    /// roll a claim backwards — freshness is monotonic per claim, not per
    /// message kind or arrival order.
    #[test]
    fn a_delayed_stale_delta_never_rolls_a_claim_backwards(
        inc in 1u64..1_000,
        seq in 0u64..1_000,
        stale_inc_raw in 0u64..1_000,
        stale_seq_raw in 0u64..1_000,
    ) {
        let roster: Vec<PeerId> = (0..3).map(PeerId).collect();
        let mut peer =
            GossipPeer::with_channels(PeerId(0), delta_cfg()).join_channel(ChannelId(0), roster);
        let mut fx = MockEffects::new(7);
        peer.init(&mut fx);
        fx.take_sent_on();

        // A newer full exchange teaches the fresh claim...
        let subject = PeerId(2);
        let fresh = PeerAlive { peer: subject, incarnation: inc, seq };
        peer.on_channel_message(
            &mut fx,
            ChannelId(0),
            PeerId(1),
            GossipMsg::MembershipResponse { entries: vec![fresh], dead: vec![] },
        );
        prop_assert_eq!(
            peer.discovery_on(ChannelId(0)).unwrap().claim_of(subject),
            Some(&fresh)
        );

        // ...then a delta that was delayed in flight arrives, carrying a
        // claim that is not fresher (any (inc', seq') ≤ (inc, seq)).
        let stale_inc = stale_inc_raw.min(inc);
        let stale_seq = if stale_inc == inc { stale_seq_raw.min(seq) } else { stale_seq_raw };
        let stale = PeerAlive { peer: subject, incarnation: stale_inc, seq: stale_seq };
        prop_assert!(!stale.fresher_than(&fresh), "generator invariant");
        peer.on_channel_message(
            &mut fx,
            ChannelId(0),
            PeerId(1),
            GossipMsg::MembershipDelta { entries: vec![stale], dead: vec![] },
        );
        let held = *peer
            .discovery_on(ChannelId(0))
            .unwrap()
            .claim_of(subject)
            .expect("the claim must survive");
        prop_assert_eq!(held, fresh, "a delayed stale delta rolled the claim backwards");
    }
}
