//! Size counter: one row per workspace crate with its non-test, non-comment,
//! non-blank lines of `src/**/*.rs`, its number of `pub` items, and how many
//! of those items nothing outside the crate names.
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
//! is counted.
//!
//! `uncalled` counts the `pub` `fn` / `struct` / `enum` / `trait` / `type` /
//! `const` / `static` items whose name appears, as a whole word, in no `.rs`
//! file outside the crate's own directory (for the root package, outside
//! `src/`). Other crates, `tests/`, `examples/` and the e2e package are all
//! outside; `vendor/` and any `target/` are not read. Comments count as
//! mentions, and a name another item shares — `len`, `new` — counts as called
//! wherever the other item is used, so the column is a lower bound on the
//! items no caller needs. The counter reports; it has no threshold.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// What may follow `pub ` on a line that declares an item.
const ITEM_KEYWORDS: [&str; 13] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "unsafe", "async",
    "extern", "union",
];

/// The `pub` items whose names the `uncalled` column looks up.
const NAMED_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Code lines and `pub` items of a file or a crate.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Size {
    lines: usize,
    pub_items: usize,
    /// Names of the `pub` items of a [`NAMED_KEYWORDS`] kind.
    names: Vec<String>,
}

fn main() {
    let root = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| ".".to_string()));
    let e2e = root.join("crates/bench/src/bin/e2e");
    let read = |file: &Path| {
        fs::read_to_string(file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()))
    };
    // Every source file that may name an item, with the words it holds.
    let sources: Vec<(PathBuf, HashSet<String>)> = rust_files(&root, &root.join("vendor"))
        .into_iter()
        .map(|file| {
            let words = words(&read(&file));
            (file, words)
        })
        .collect();
    let mut crates = vec![root.clone()];
    crates.extend(subdirectories(&root.join("crates")));
    println!(
        "{:<20} {:>7} {:>9} {:>9}",
        "crate", "lines", "pub items", "uncalled"
    );
    for dir in crates {
        let Some(name) = package_name(&dir.join("Cargo.toml")) else {
            continue;
        };
        let mut size = Size::default();
        for file in rust_files(&dir.join("src"), &e2e) {
            let file_size = measure(&read(&file));
            size.lines += file_size.lines;
            size.pub_items += file_size.pub_items;
            size.names.extend(file_size.names);
        }
        let own = if dir == root { root.join("src") } else { dir };
        let inside = |file: &Path| file.starts_with(&own) && !file.starts_with(&e2e);
        let outside: Vec<&HashSet<String>> = sources
            .iter()
            .filter(|(file, _)| !inside(file))
            .map(|(_, words)| words)
            .collect();
        let uncalled = size
            .names
            .iter()
            .filter(|name| !outside.iter().any(|words| words.contains(*name)))
            .count();
        println!(
            "{name:<20} {:>7} {:>9} {uncalled:>9}",
            size.lines, size.pub_items
        );
    }
}

/// The identifiers (whole words of `[A-Za-z0-9_]`) that occur in `text`.
fn words(text: &str) -> HashSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
        .map(str::to_string)
        .collect()
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

/// Every `.rs` file under `dir`, sorted, except those under `skip`, a
/// `target/` directory or a hidden one.
fn rust_files(dir: &Path, skip: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.flatten().map(|entry| entry.path()) {
            if path.is_dir() {
                let name = path.file_name().unwrap_or_default().to_string_lossy();
                if path != skip && name != "target" && !name.starts_with('.') {
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
        let Some(rest) = line.strip_prefix("pub ") else {
            continue;
        };
        let mut tokens = rest.split_whitespace();
        if !tokens
            .next()
            .is_some_and(|keyword| ITEM_KEYWORDS.contains(&keyword))
        {
            continue;
        }
        size.pub_items += 1;
        if let Some(name) = item_name(rest) {
            size.names.push(name);
        }
    }
    size
}

/// The name an item declaration (the text after `pub `) introduces, if it
/// is of a [`NAMED_KEYWORDS`] kind: `const fn f` and `unsafe fn f` name `f`,
/// `static mut X` names `X`, `use` and `mod` name nothing.
fn item_name(declaration: &str) -> Option<String> {
    let tokens: Vec<&str> = declaration
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|token| !token.is_empty())
        .collect();
    let qualifiers = ["const", "unsafe", "async", "extern", "C", "mut"];
    let keyword = tokens.iter().position(|t| NAMED_KEYWORDS.contains(t))?;
    let after = &tokens[keyword + 1..];
    // `const fn` and `unsafe fn`: the `fn` is the keyword that names.
    let named = match after.iter().position(|t| *t == "fn") {
        Some(fn_at) if after[..fn_at].iter().all(|t| qualifiers.contains(t)) => &after[fn_at + 1..],
        _ => after,
    };
    let name = named.iter().find(|t| !qualifiers.contains(t))?;
    Some(name.to_string())
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
            names: vec!["f".to_string(), "E".to_string()],
        };
        assert_eq!(measure(text), expected);
    }

    #[test]
    fn item_names_skip_qualifiers() {
        let name = |declaration: &str| item_name(declaration);
        assert_eq!(name("fn dot(a: &[f64]) -> f64 {"), Some("dot".into()));
        assert_eq!(name("const fn zero() -> u8 {"), Some("zero".into()));
        assert_eq!(name("unsafe fn raw(p: *const u8) {"), Some("raw".into()));
        assert_eq!(name("const LIMIT: usize = 4;"), Some("LIMIT".into()));
        assert_eq!(name("static mut COUNT: u32 = 0;"), Some("COUNT".into()));
        assert_eq!(name("struct View<'a> {"), Some("View".into()));
        assert_eq!(name("trait Store: Send {"), Some("Store".into()));
        assert_eq!(name("type Item = u8;"), Some("Item".into()));
        assert_eq!(name("use std::fmt;"), None);
        assert_eq!(name("mod ops;"), None);
    }

    #[test]
    fn words_are_whole_identifiers() {
        let found = words("let x = ops::dot(&w, v.len()); // dot_view");
        for word in ["let", "x", "ops", "dot", "w", "v", "len", "dot_view"] {
            assert!(found.contains(word), "{word}");
        }
        assert!(!found.contains("dot_"));
        assert!(!found.contains("do"));
    }
}
