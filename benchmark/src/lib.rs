//! The repository's performance instrument: four closed-loop workloads,
//! the end-to-end metrics every one of them reports, and the outside-in
//! per-layer cost ledger.  `README.md` explains what is measured and why;
//! `src/main.rs` is the command line; `src/layers.rs` is the only file
//! that calls into the product.

pub mod gen;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// A directory the benchmark owns: emptied when taken, removed on drop.
/// The product (or the caller) creates it.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn new(parent: &std::path::Path, name: &str) -> Self {
        let path = parent.join(name);
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
