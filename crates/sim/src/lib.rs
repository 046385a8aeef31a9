//! # ree-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the REE SIFT reproduction (Whisnant et al., CRHC-02-02):
//! virtual time, a deterministic future-event list and seedable random
//! streams.
//!
//! The simulated cluster OS drives [`EventQueue`] directly; the ARMOR
//! runtime, the fault-injection campaigns and the SAN solver draw from
//! [`SimRng`] streams. Determinism is the load-bearing property: a
//! `(seed, configuration)` pair must replay the identical trace so that
//! injection campaigns are debuggable and ablations comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod rng;
mod time;

pub use queue::{EventHandle, EventQueue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
