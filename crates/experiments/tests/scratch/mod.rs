//! A test's scratch directory: `dlion-<name>-<pid>` under the system temp
//! dir, created empty and removed with everything in it when the guard
//! drops — so concurrent test runs never share one, and a run leaves
//! nothing behind. The crate's unit tests include this file too.

use std::path::{Path, PathBuf};

pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("dlion-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch dir");
        ScratchDir(dir)
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
