//! # incmr-simkit
//!
//! Deterministic discrete-event simulation kernel used by the `incmr`
//! MapReduce framework reproduction.
//!
//! The kernel deliberately contains no domain knowledge. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a millisecond-resolution virtual clock,
//! * [`Sim`] — a cancelable future-event list plus the clock (the caller
//!   owns the loop: pop an event, handle it, repeat),
//! * [`rng::DetRng`] — seeded, forkable random-number streams,
//! * [`dist`] — Zipfian / uniform / exponential samplers,
//! * [`stats`] — online statistics (Welford, time-weighted means, sampled
//!   series, percentiles),
//! * [`resource::PsResource`] — a processor-sharing bandwidth resource used
//!   to model disks and network links.
//!
//! Everything is single-threaded and deterministic: two runs with the same
//! seeds produce byte-identical results, which is what lets the experiment
//! harness reproduce the paper's "average of 5 runs" as an average over 5
//! seeds.

pub mod dist;
pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventId, Sim};
pub use time::{SimDuration, SimTime};
