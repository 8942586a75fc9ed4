//! Executable reference semantics for the message-level engine.
//!
//! This is the seed's `gossip_block`, verbatim: a generic [`EventQueue`]
//! with one slot allocation per boxed event, `Vec<bool>` flags, one
//! `BTreeMap` delivery log per node and a latency-model call per event
//! leg. It is *not* a hot path — the optimized engine lives in
//! `TopologyView::gossip_into` — but it is load-bearing: it defines the
//! behaviour the optimized engines must reproduce **bit for bit**. The
//! cross-validation suites (`gossip_legacy.rs`, `pq_equivalence.rs`)
//! assert that equality event for event, so this one copy is the single
//! definition of "what the seed engine did".

use std::collections::BTreeMap;

use perigee_netsim::{
    Behavior, GossipConfig, GossipMode, LatencyModel, NodeId, Population, SimTime, Topology,
};

use super::event::EventQueue;

#[derive(Debug)]
enum Event {
    Inv {
        at: NodeId,
        from: NodeId,
    },
    GetData {
        at: NodeId,
        from: NodeId,
    },
    /// `push` marks an unsolicited full-message push (a flood or
    /// push/pull push leg): it doubles as the sender's announcement, so
    /// its pop records the per-neighbor delivery. A pulled block
    /// (`push: false`) was already announced by its INV.
    Block {
        at: NodeId,
        from: NodeId,
        push: bool,
    },
    Announce {
        at: NodeId,
    },
}

/// Simulates one block mined by `source` at time zero with the reference
/// event-queue engine, returning the first-arrival times and the
/// per-node, per-neighbor delivery logs.
pub fn gossip_block<L: LatencyModel + ?Sized>(
    topology: &Topology,
    latency: &L,
    population: &Population,
    source: NodeId,
    config: &GossipConfig,
) -> (Vec<SimTime>, Vec<BTreeMap<NodeId, SimTime>>) {
    let n = topology.len();
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut has_block = vec![false; n];
    let mut requested = vec![false; n];
    let mut first_arrival = vec![SimTime::INFINITY; n];
    let mut per_neighbor: Vec<BTreeMap<NodeId, SimTime>> = vec![BTreeMap::new(); n];

    has_block[source.index()] = true;
    first_arrival[source.index()] = SimTime::ZERO;
    // The miner announces immediately (no validation of its own block),
    // unless it is a withholding adversary.
    match population.profile(source).behavior {
        Behavior::Silent => {}
        Behavior::Honest => queue.schedule(SimTime::ZERO, Event::Announce { at: source }),
        Behavior::Delay(d) => queue.schedule(d, Event::Announce { at: source }),
    }

    while let Some((t, event)) = queue.pop() {
        match event {
            Event::Announce { at } => {
                for (k, v) in topology.neighbors(at).into_iter().enumerate() {
                    let leg = latency.delay(at, v);
                    let push = match config.mode {
                        GossipMode::Flood => true,
                        GossipMode::InvGetData => false,
                        GossipMode::PushPull { push_degree } => (k as u32) < push_degree,
                    };
                    if push {
                        let transfer = config.transfer.transfer_time(population, at, v);
                        queue.schedule(
                            t + leg + transfer,
                            Event::Block {
                                at: v,
                                from: at,
                                push: true,
                            },
                        );
                    } else {
                        queue.schedule(t + leg, Event::Inv { at: v, from: at });
                    }
                }
            }
            Event::Inv { at, from } => {
                per_neighbor[at.index()].entry(from).or_insert(t);
                if !has_block[at.index()] && !requested[at.index()] {
                    requested[at.index()] = true;
                    let leg = latency.delay(at, from);
                    queue.schedule(t + leg, Event::GetData { at: from, from: at });
                }
            }
            Event::GetData { at, from } => {
                // `from` requested the block from `at`; `at` must have it
                // since it announced.
                debug_assert!(has_block[at.index()]);
                let leg = latency.delay(at, from);
                let transfer = config.transfer.transfer_time(population, at, from);
                queue.schedule(
                    t + leg + transfer,
                    Event::Block {
                        at: from,
                        from: at,
                        push: false,
                    },
                );
            }
            Event::Block { at, from, push } => {
                if push {
                    per_neighbor[at.index()].entry(from).or_insert(t);
                }
                if has_block[at.index()] {
                    continue;
                }
                has_block[at.index()] = true;
                first_arrival[at.index()] = t;
                let profile = population.profile(at);
                let validated = t + profile.validation_delay;
                match profile.behavior {
                    Behavior::Honest => queue.schedule(validated, Event::Announce { at }),
                    Behavior::Silent => {}
                    Behavior::Delay(extra) => {
                        queue.schedule(validated + extra, Event::Announce { at })
                    }
                }
            }
        }
    }

    (first_arrival, per_neighbor)
}
