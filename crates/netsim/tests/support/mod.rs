//! The seed engine's executable reference semantics, shared by the
//! integration tests that compare the optimized engines against it:
//! [`event::EventQueue`] (the boxed-payload `BinaryHeap` event queue
//! whose `(time, insertion sequence)` pop order the packed scratch
//! queues reproduce) and [`reference::gossip_block`] (the seed's
//! message-level engine built on it). Neither is part of the crate's
//! API: they exist only as the oracles the tests check against.

// Each test binary mounts the whole module but uses only part of it.
#![allow(dead_code)]

pub mod event;
pub mod reference;
