//@ path: crates/core/src/engine.rs
// Deliberately-bad fixture: ambient authority (clocks, env, threads)
// outside crates/util and crates/bench. Never compiled — lexed and
// linted by tests/golden.rs.

pub fn flagged_env() -> Option<String> {
    std::env::var("LEGODB_SEED").ok()
}

pub fn flagged_clocks() -> bool {
    let _start = std::time::Instant::now();
    let _wall = std::time::SystemTime::now();
    true
}

pub fn flagged_spawn() {
    std::thread::spawn(|| {});
}

pub fn flagged_scoped_threads() {
    std::thread::scope(|_| {});
    let _ = std::thread::Builder::new();
}

pub fn suppressed() -> Option<String> {
    // lint: allow(no-ambient-authority) — fixture: documented escape hatch
    std::env::var("PATH").ok()
}

pub fn flagged_filesystem() {
    let _ = std::fs::read("ambient.bin");
    let _ = std::fs::File::open("ambient.bin");
    let _ = std::fs::OpenOptions::new();
}

pub fn sanctioned_capability(dir: &legodb_util::fs::DirHandle) -> std::io::Result<Vec<u8>> {
    // The DirHandle path is the sanctioned route: not flagged.
    dir.read("durable.json")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_use_clocks() {
        let _ = std::time::Instant::now();
    }
}
