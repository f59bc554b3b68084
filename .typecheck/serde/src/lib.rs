//! This workspace's `serde`: marker traits and no-op derives.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
