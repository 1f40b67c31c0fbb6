//! End-to-end benchmark of the LogBase cluster: see `README.md`.

pub mod agree;
pub mod deploy;
pub mod drive;
pub mod host;
pub mod layers;
pub mod pin;
pub mod report;
pub mod run;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod traced;
