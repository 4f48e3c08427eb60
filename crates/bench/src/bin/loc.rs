//! Size counter: one row per workspace crate with its non-test, non-comment,
//! non-blank lines of `src/**/*.rs` and its number of `pub` items.
//!
//! ```sh
//! cargo run -q -p bismarck-bench --bin loc [-- <root>]
//! ```
//!
//! `<root>` is the workspace root (default: the current directory). A line
//! whose first non-blank characters are `//` (so `//!` and `///` too) is a
//! comment. An item under `#[cfg(test)]` — a test module, usually — is test
//! code down to the line that closes its braces, or ends it with `;`. A
//! `pub` item is a code line that starts `pub fn`, `pub struct`, `pub use`
//! and so on; `pub(crate)` and narrower are not `pub`, and fields and enum
//! variants are not items. `vendor/` holds stand-ins, not crates of the
//! project, and `crates/bench/src/bin/e2e/` is a package of its own: neither
//! is counted. The counter reports; it has no threshold.

use std::fs;
use std::path::{Path, PathBuf};

/// What may follow `pub ` on a line that declares an item.
const ITEM_KEYWORDS: [&str; 13] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "unsafe", "async",
    "extern", "union",
];

/// Code lines and `pub` items of a file or a crate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Size {
    lines: usize,
    pub_items: usize,
}

fn main() {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));
    let e2e = root.join("crates/bench/src/bin/e2e");
    let mut crates = vec![root.clone()];
    crates.extend(subdirectories(&root.join("crates")));
    println!("{:<20} {:>7} {:>9}", "crate", "lines", "pub items");
    for dir in crates {
        let Some(name) = package_name(&dir.join("Cargo.toml")) else {
            continue;
        };
        let mut size = Size::default();
        for file in rust_files(&dir.join("src"), &e2e) {
            let text = fs::read_to_string(&file)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
            let file_size = measure(&text);
            size.lines += file_size.lines;
            size.pub_items += file_size.pub_items;
        }
        println!("{name:<20} {:>7} {:>9}", size.lines, size.pub_items);
    }
}

/// The directories directly under `dir`, sorted.
fn subdirectories(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)
        .map(|entries| {
            let paths = entries.flatten().map(|entry| entry.path());
            paths.filter(|path| path.is_dir()).collect()
        })
        .unwrap_or_default();
    dirs.sort();
    dirs
}

/// The `name` in the `[package]` table of a manifest, if it has one.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let package = text.split("[package]").nth(1)?;
    let line = package
        .lines()
        .find(|line| line.trim_start().starts_with("name"))?;
    Some(line.split('"').nth(1)?.to_string())
}

/// Every `.rs` file under `dir`, sorted, except those under `skip`.
fn rust_files(dir: &Path, skip: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.flatten().map(|entry| entry.path()) {
            if path.is_dir() {
                if path != skip {
                    pending.push(path);
                }
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The code lines and `pub` items of one source file.
fn measure(text: &str) -> Size {
    let mut size = Size::default();
    // Inside a `#[cfg(test)]` item: its brace depth so far, and whether its
    // body has opened.
    let mut test_item: Option<(i64, bool)> = None;
    for line in text.lines().map(str::trim) {
        if test_item.is_none() && line.starts_with("#[cfg(test)]") {
            test_item = Some((0, false));
        }
        if let Some((depth, opened)) = &mut test_item {
            let code = line.split("//").next().unwrap_or_default().trim_end();
            *opened |= code.contains('{');
            *depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            if (*opened && *depth <= 0) || (!*opened && code.ends_with(';')) {
                test_item = None;
            }
            continue;
        }
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        size.lines += 1;
        let keyword = line
            .strip_prefix("pub ")
            .and_then(|rest| rest.split_whitespace().next());
        if keyword.is_some_and(|keyword| ITEM_KEYWORDS.contains(&keyword)) {
            size.pub_items += 1;
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_and_pub_items_but_not_comments_or_tests() {
        let text = r#"//! Module doc.

/// A public function.
pub fn f() -> u8 {
    1 // a trailing comment keeps the line code
}
pub(crate) struct Hidden;
pub use std::fmt;
struct S {
    pub field: u8,
}
#[cfg(test)]
use std::mem;
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = 1;
    }
}
pub enum E {}
"#;
        let expected = Size {
            lines: 9,
            pub_items: 3,
        };
        assert_eq!(measure(text), expected);
    }
}
