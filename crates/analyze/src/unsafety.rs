//! The `unsafe-audit` pass: every `unsafe` site needs a `// SAFETY:`
//! comment, and all sites land in a per-crate inventory.
//!
//! The workspace's only `unsafe` lives in `voyager-tensor`'s `simd`
//! module (`std::arch` kernels and their dispatch). Each `unsafe`
//! block, fn, impl or trait must have an adjacent `// SAFETY:` comment
//! explaining the proof obligation,
//! rustc-`undocumented_unsafe_blocks`-style, and the full
//! inventory is pinned by the workspace gate test so new sites are a
//! conscious, reviewed decision.
//!
//! "Adjacent" accepts the three idioms in real code: a comment line
//! (or run of comment/attribute lines) immediately above the site, a
//! trailing comment on the same line, or a comment on the first line
//! inside the block.

use crate::lexer::TokenKind;
use crate::{Finding, SourceFile};

/// One `unsafe` occurrence in non-test code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    /// Repo-relative path.
    pub path: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// Site shape: `fn`, `impl`, `trait`, `extern`, or `block`.
    pub kind: &'static str,
    /// Whether an adjacent `// SAFETY:` comment was found.
    pub has_safety_comment: bool,
}

/// Scans one file for `unsafe` sites, returning audit findings for
/// undocumented ones plus the complete inventory.
pub fn check(file: &SourceFile) -> (Vec<Finding>, Vec<UnsafeSite>) {
    let mut findings = Vec::new();
    let mut sites = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if file.in_test[i] || !t.is_ident("unsafe") {
            continue;
        }
        let kind = match file.tokens.get(i + 1) {
            Some(n) if n.is_ident("fn") => "fn",
            Some(n) if n.is_ident("impl") => "impl",
            Some(n) if n.is_ident("trait") => "trait",
            Some(n) if n.is_ident("extern") => "extern",
            Some(n) if n.is_punct('{') => "block",
            // `pub unsafe fn` qualifiers put other idents between
            // `unsafe` and `fn`; anything identifier-shaped after
            // `unsafe` is a declaration of some kind.
            Some(n) if n.kind == TokenKind::Ident => "fn",
            _ => "block",
        };
        let has_safety_comment = has_adjacent_safety(&file.lines, t.line);
        if !has_safety_comment {
            findings.push(Finding {
                lint: "unsafe-audit",
                path: file.path.clone(),
                line: t.line,
                message: format!(
                    "`unsafe` {kind} without an adjacent `// SAFETY:` comment; state the \
                     invariant that makes this sound"
                ),
            });
        }
        sites.push(UnsafeSite {
            path: file.path.clone(),
            line: t.line,
            kind,
            has_safety_comment,
        });
    }
    (findings, sites)
}

/// Is there a `SAFETY:` comment adjacent to 1-based source line
/// `line`? Checks the line itself, the contiguous run of comment /
/// attribute lines above it, and a comment on the immediately
/// following line (the first line inside a block).
fn has_adjacent_safety(lines: &[String], line: u32) -> bool {
    let idx = line as usize - 1;
    let mentions = |s: &str| s.contains("SAFETY:");
    if lines.get(idx).is_some_and(|l| mentions(l)) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        let above = lines[k - 1].trim_start();
        if above.starts_with("//") || above.starts_with('#') {
            if mentions(above) {
                return true;
            }
            k -= 1;
        } else {
            break;
        }
    }
    lines
        .get(idx + 1)
        .map(|l| l.trim_start())
        .is_some_and(|l| l.starts_with("//") && mentions(l))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (Vec<Finding>, Vec<UnsafeSite>) {
        check(&SourceFile::parse("x.rs", src))
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_inventoried() {
        let (findings, sites) = run("fn f() { unsafe { g(); } }\nunsafe fn h() {}");
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].lint, "unsafe-audit");
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].kind, "block");
        assert_eq!(sites[1].kind, "fn");
        assert!(sites.iter().all(|s| !s.has_safety_comment));
    }

    #[test]
    fn safety_comment_above_same_line_or_inside_all_count() {
        let above = "// SAFETY: bounds checked above.\nfn f() { unsafe { g(); } }";
        let trailing = "fn f() { unsafe { g() } } // SAFETY: g is pure.";
        let inside = "fn f() {\n unsafe {\n // SAFETY: pinned.\n g();\n }\n}";
        let through_attr =
            "// SAFETY: impl holds no references.\n#[allow(dead_code)]\nunsafe impl Send for X {}";
        for src in [above, trailing, inside, through_attr] {
            let (findings, sites) = run(src);
            assert!(findings.is_empty(), "{src}");
            assert!(sites[0].has_safety_comment, "{src}");
        }
    }

    #[test]
    fn unsafe_in_tests_and_strings_is_ignored() {
        let (findings, sites) = run(
            "#[cfg(test)]\nmod t { fn f() { unsafe { g(); } } }\nfn d() { let s = \"unsafe\"; }",
        );
        assert!(findings.is_empty());
        assert!(sites.is_empty());
    }

    #[test]
    fn unsafe_impl_and_trait_kinds() {
        let (_, sites) = run("unsafe impl Send for X {}\nunsafe trait T {}");
        assert_eq!(sites[0].kind, "impl");
        assert_eq!(sites[1].kind, "trait");
    }
}
