//! Offline stand-in for `serde`. The xtc workspace derives `Serialize`
//! on a few report structs and never serializes through it (all JSON
//! is hand-written), so the derive expands to nothing.

pub trait Serialize {}
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
