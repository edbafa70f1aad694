//! Workspace file discovery: every Rust source the lint gate covers,
//! classified by [`FileKind`], in a deterministic (sorted) order.
//!
//! Discovery routes through [`legodb_util::fs::DirHandle`] — the lint
//! gate obeys the same capability discipline it enforces.

use crate::rules::FileKind;
use legodb_util::fs::DirHandle;
use std::io;

/// One file to lint: the workspace-relative path (always `/`-separated —
/// rule scoping matches on it, and [`DirHandle`] reads resolve it) plus
/// its classification.
#[derive(Debug, Clone)]
pub struct FileEntry {
    pub rel: String,
    pub kind: FileKind,
}

/// Directories never scanned: build output, VCS, and the lint crate's
/// own deliberately-bad golden fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", "lint_fixtures"];

/// Collect every `.rs` file the gate covers, relative to the workspace
/// root: `crates/*/{src,tests,benches,examples}`, plus the façade
/// crate's `src/`, `tests/`, and `examples/`.
pub fn collect_workspace(root: &DirHandle) -> io::Result<Vec<FileEntry>> {
    let mut out = Vec::new();
    for top in ["src", "tests", "examples"] {
        collect_dir(root, top, &mut out)?;
    }
    if root.exists("crates")? {
        for member in root.subdir("crates")?.list()? {
            if !member.is_dir {
                continue;
            }
            for sub in ["src", "tests", "benches", "examples"] {
                collect_dir(root, &format!("crates/{}/{sub}", member.name), &mut out)?;
            }
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn collect_dir(root: &DirHandle, rel: &str, out: &mut Vec<FileEntry>) -> io::Result<()> {
    if !root.exists(rel)? {
        return Ok(());
    }
    let dir = match root.subdir(rel) {
        Ok(d) => d,
        Err(_) => return Ok(()), // a plain file named like a source dir
    };
    for entry in dir.list()? {
        let child = format!("{rel}/{}", entry.name);
        if entry.is_dir {
            if !SKIP_DIRS.contains(&entry.name.as_str()) && !entry.name.starts_with('.') {
                collect_dir(root, &child, out)?;
            }
        } else if entry.name.ends_with(".rs") {
            let kind = classify(&child);
            out.push(FileEntry { rel: child, kind });
        }
    }
    Ok(())
}

/// Classify a workspace-relative path into the [`FileKind`] that decides
/// rule applicability.
pub fn classify(rel: &str) -> FileKind {
    let in_dir = |d: &str| rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"));
    if in_dir("tests") || in_dir("benches") {
        FileKind::Test
    } else if in_dir("examples") {
        FileKind::Example
    } else if rel.ends_with("/main.rs") || rel == "src/main.rs" || rel.contains("/src/bin/") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        assert_eq!(classify("crates/core/src/engine.rs"), FileKind::Lib);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(classify("crates/lint/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("crates/demo/src/bin/tool.rs"), FileKind::Bin);
        assert_eq!(classify("tests/pipeline.rs"), FileKind::Test);
        assert_eq!(classify("crates/xml/tests/adversarial.rs"), FileKind::Test);
        assert_eq!(
            classify("crates/bench/benches/machinery.rs"),
            FileKind::Test
        );
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Example);
    }

    #[test]
    fn collect_walks_via_the_capability_handle() {
        let root = std::env::temp_dir().join(format!("legodb-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = DirHandle::create(&root).unwrap();
        dir.write_atomic("src/lib.rs", b"pub fn f() {}").unwrap();
        dir.write_atomic("crates/a/src/lib.rs", b"").unwrap();
        dir.write_atomic("crates/a/tests/t.rs", b"").unwrap();
        dir.write_atomic("crates/a/src/target_helper.rs", b"")
            .unwrap();
        dir.write_atomic("crates/a/src/notes.txt", b"").unwrap();
        dir.create_subdir("crates/a/src/target").unwrap(); // skipped dir
        dir.write_atomic("crates/a/src/target/gen.rs", b"").unwrap();
        let files = collect_workspace(&dir).unwrap();
        let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        assert_eq!(
            rels,
            [
                "crates/a/src/lib.rs",
                "crates/a/src/target_helper.rs",
                "crates/a/tests/t.rs",
                "src/lib.rs",
            ]
        );
        assert_eq!(files[2].kind, FileKind::Test);
        let _ = std::fs::remove_dir_all(&root);
    }
}
