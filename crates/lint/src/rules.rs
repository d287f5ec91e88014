//! The rule engine: R1 (SAFETY comments), R2 (hot-path purity),
//! R3 (print hygiene), plus the `lint:allow` escape machinery.
//!
//! All rules operate on the token stream from [`crate::lexer`], so code
//! inside strings and comments can never trip a rule, and comments are
//! first-class (SAFETY detection, allow parsing).

use crate::config::Config;
use crate::lexer::{lex, TokKind, Token};

/// Rule identifiers, used in findings and in `lint:allow(<rule>)`.
pub const R_SAFETY: &str = "safety-comment";
pub const R_HOT_ALLOC: &str = "hot-path-alloc";
pub const R_HOT_PANIC: &str = "hot-path-panic";
pub const R_HOT_CLOCK: &str = "hot-path-clock";
pub const R_PRINT: &str = "no-print";
pub const R_UNUSED_ALLOW: &str = "unused-allow";
pub const R_MALFORMED_ALLOW: &str = "malformed-allow";
pub const R_INVENTORY: &str = "inventory-drift";

/// Every rule an allow may name.
pub const ALL_RULES: &[&str] = &[
    R_SAFETY,
    R_HOT_ALLOC,
    R_HOT_PANIC,
    R_HOT_CLOCK,
    R_PRINT,
    R_UNUSED_ALLOW,
    R_MALFORMED_ALLOW,
    R_INVENTORY,
];

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// An `unsafe` site found in a file — shared between R1 and the
/// inventory (R4).
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub line: u32,
    /// `block` | `fn` | `impl` | `trait` | `extern`
    pub kind: &'static str,
    /// The adjacent comment run, joined, if it contains `SAFETY:`.
    pub safety: Option<String>,
}

/// A parsed `// lint:allow(rule): reason` escape.
struct Allow {
    rule: String,
    line: u32,
    /// Last line this allow can suppress a finding on: the end of its
    /// own contiguous comment run (the reason may wrap onto further
    /// `//` lines) plus one line of code below it.
    end_line: u32,
    used: bool,
}

/// Check one file. `apply_print_rule` is decided by the walker (library
/// sources only, minus `print_allow` paths).
pub fn check_file(rel: &str, src: &str, cfg: &Config, apply_print_rule: bool) -> Vec<Finding> {
    let toks = lex(src);
    let mut findings = Vec::new();
    let mut allows = collect_allows(rel, &toks, &mut findings);
    let masked = mask_test_regions(&toks);
    let fn_of = enclosing_fns(&toks);

    // ── R1: SAFETY comments on unsafe sites (applies everywhere) ──────
    for site in scan_unsafe(&toks) {
        if site.safety.is_none() {
            findings.push(Finding {
                rule: R_SAFETY,
                file: rel.to_string(),
                line: site.line,
                msg: format!(
                    "`unsafe` {} has no preceding `// SAFETY:` comment",
                    site.kind
                ),
            });
        }
    }

    // ── R2: hot-path purity ───────────────────────────────────────────
    if let Some(spec) = cfg.hot_spec(rel) {
        for i in 0..toks.len() {
            if masked[i] {
                continue;
            }
            let hot_here = match &fn_of[i] {
                Some(name) => spec.fn_is_hot(name),
                None => false,
            };
            if !hot_here {
                continue;
            }
            if let Some((rule, what)) = hot_violation(&toks, i) {
                let fname = fn_of[i].as_deref().unwrap_or("?");
                // A `now_ns` that forwards to its clock *is* the clock.
                if what == ".now_ns()" && fname == "now_ns" {
                    continue;
                }
                findings.push(Finding {
                    rule,
                    file: rel.to_string(),
                    line: toks[i].line,
                    msg: format!("hot fn `{fname}` uses `{what}`"),
                });
            }
        }
    }

    // ── R3: no println!/eprintln! in library code ─────────────────────
    if apply_print_rule {
        for i in 0..toks.len() {
            if masked[i] {
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint")
                && next_punct_is(&toks, i + 1, "!")
            {
                findings.push(Finding {
                    rule: R_PRINT,
                    file: rel.to_string(),
                    line: t.line,
                    msg: format!("`{}!` in library code (use stats/log hooks)", t.text),
                });
            }
        }
    }

    // ── Apply allows: each suppresses exactly one finding on its own
    //    line, within its comment run, or on the line below it ──────────
    findings.sort_by_key(|f| f.line);
    findings.retain(|f| {
        if f.rule == R_MALFORMED_ALLOW {
            return true; // never suppressible
        }
        for a in allows.iter_mut() {
            if !a.used && a.rule == f.rule && a.line <= f.line && f.line <= a.end_line {
                a.used = true;
                return false;
            }
        }
        true
    });
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                rule: R_UNUSED_ALLOW,
                file: rel.to_string(),
                line: a.line,
                msg: format!(
                    "lint:allow({}) suppresses nothing — remove it or move it to the finding",
                    a.rule
                ),
            });
        }
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Scan all `unsafe` sites with their adjacent SAFETY comment, if any.
/// Public so the inventory (R4) shares the exact detection logic.
pub fn scan_unsafe(toks: &[Token]) -> Vec<UnsafeSite> {
    let first_tok_of_line = first_token_of_line(toks);
    let mut sites = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let kind = match next_code_token(toks, i + 1).map(|j| toks[j].text.as_str()) {
            Some("fn") => "fn",
            Some("impl") => "impl",
            Some("trait") => "trait",
            Some("extern") => "extern",
            _ => "block",
        };
        let safety = find_safety_comment(toks, i, &first_tok_of_line);
        sites.push(UnsafeSite {
            line: t.line,
            kind,
            safety,
        });
    }
    sites
}

/// Backward scan from the `unsafe` token at `i` for an adjacent comment
/// run containing `SAFETY:`. Skips the statement prefix on the same line
/// (`let x = unsafe {`), whole attribute lines (`#[allow(...)]`), and
/// statement-continuation tokens; stops (fails) at the end of a previous
/// statement (`;`, `{`, `}`) so each site needs its own comment.
fn find_safety_comment(
    toks: &[Token],
    i: usize,
    first_tok_of_line: &std::collections::HashMap<u32, usize>,
) -> Option<String> {
    let site_line = toks[i].line;
    let mut j = i;
    // Same-line prefix: a trailing comment from a previous line cannot be
    // here, but a same-line `/* SAFETY: … */ unsafe {` counts.
    while j > 0 && toks[j - 1].line == site_line {
        j -= 1;
        if toks[j].kind == TokKind::Comment && toks[j].text.contains("SAFETY:") {
            return Some(comment_run_text(toks, j));
        }
    }
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        match t.kind {
            TokKind::Comment => {
                // Coalesce the adjacent run of comments and search it.
                let mut k = j;
                loop {
                    if toks[k].text.contains("SAFETY:") {
                        return Some(comment_run_text(toks, k));
                    }
                    if k > 0 && toks[k - 1].kind == TokKind::Comment {
                        k -= 1;
                    } else {
                        break;
                    }
                }
                return None;
            }
            TokKind::Punct if t.text == "#" => {
                continue; // attribute opener; keep walking up
            }
            TokKind::Punct if matches!(t.text.as_str(), ";" | "{" | "}") => {
                // Previous statement ended without a comment in between …
                // unless this token is part of an attribute line
                // (`#[cfg(feature = "x")]` has none of these, but be
                // permissive: if the line starts with `#`, skip the line).
                if line_starts_with_hash(toks, j, first_tok_of_line) {
                    j = first_tok_of_line[&toks[j].line];
                    continue;
                }
                return None;
            }
            _ => {
                if line_starts_with_hash(toks, j, first_tok_of_line) {
                    j = first_tok_of_line[&toks[j].line];
                    continue;
                }
                // Statement continuation (`let x =` on the previous
                // line, `pub` etc.) — keep walking up.
                continue;
            }
        }
    }
    None
}

fn line_starts_with_hash(
    toks: &[Token],
    j: usize,
    first_tok_of_line: &std::collections::HashMap<u32, usize>,
) -> bool {
    first_tok_of_line
        .get(&toks[j].line)
        .map(|&f| toks[f].kind == TokKind::Punct && toks[f].text == "#")
        .unwrap_or(false)
}

fn first_token_of_line(toks: &[Token]) -> std::collections::HashMap<u32, usize> {
    let mut m = std::collections::HashMap::new();
    for (i, t) in toks.iter().enumerate() {
        m.entry(t.line).or_insert(i);
    }
    m
}

/// Join an adjacent run of comment tokens (starting anywhere inside it)
/// into one string, markers stripped.
fn comment_run_text(toks: &[Token], mut k: usize) -> String {
    while k > 0 && toks[k - 1].kind == TokKind::Comment {
        k -= 1;
    }
    let mut out = String::new();
    while k < toks.len() && toks[k].kind == TokKind::Comment {
        let t = toks[k]
            .text
            .trim_start_matches("//")
            .trim_start_matches('/') // doc comments `///`
            .trim_start_matches('!')
            .trim_start_matches("/*")
            .trim_end_matches("*/")
            .trim();
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(t);
        k += 1;
    }
    out
}

/// Next non-comment token index at or after `i`.
fn next_code_token(toks: &[Token], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if toks[i].kind != TokKind::Comment {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn next_punct_is(toks: &[Token], i: usize, p: &str) -> bool {
    next_code_token(toks, i)
        .map(|j| toks[j].kind == TokKind::Punct && toks[j].text == p)
        .unwrap_or(false)
}

/// Does a hot-path violation start at token `i`? Returns (rule, display).
fn hot_violation(toks: &[Token], i: usize) -> Option<(&'static str, String)> {
    let t = &toks[i];
    // `.method(` patterns — `i` is the `.`.
    if t.kind == TokKind::Punct && t.text == "." {
        if let Some(m) = next_code_token(toks, i + 1) {
            let name = &toks[m];
            if name.kind == TokKind::Ident && next_punct_is(toks, m + 1, "(") {
                let rule = match name.text.as_str() {
                    "unwrap" | "expect" => R_HOT_PANIC,
                    "to_vec" | "to_string" | "to_owned" | "clone" | "collect" => R_HOT_ALLOC,
                    // `now_ns` is the transport clock (`Transport::now_ns`).
                    "elapsed" | "now_ns" => R_HOT_CLOCK,
                    _ => return None,
                };
                return Some((rule, format!(".{}()", name.text)));
            }
        }
        return None;
    }
    if t.kind != TokKind::Ident {
        return None;
    }
    // `macro!` patterns — `i` is the macro name.
    if next_punct_is(toks, i + 1, "!") {
        let rule = match t.text.as_str() {
            "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
            | "assert_ne" => R_HOT_PANIC,
            "vec" | "format" => R_HOT_ALLOC,
            _ => return None,
        };
        return Some((rule, format!("{}!", t.text)));
    }
    // `Path::seg` patterns — `i` is the first path segment.
    if let Some(c) = next_code_token(toks, i + 1) {
        if toks[c].kind == TokKind::Punct && toks[c].text == "::" {
            if let Some(s) = next_code_token(toks, c + 1) {
                let seg = toks[s].text.as_str();
                let rule = match (t.text.as_str(), seg) {
                    ("Box", "new")
                    | ("Vec", "new")
                    | ("Vec", "with_capacity")
                    | ("String", "from")
                    | ("String", "new")
                    | ("String", "with_capacity") => R_HOT_ALLOC,
                    ("Instant", "now") | ("SystemTime", "now") => R_HOT_CLOCK,
                    _ => return None,
                };
                return Some((rule, format!("{}::{}", t.text, seg)));
            }
        }
    }
    None
}

/// Parse `lint:allow(rule): reason` escapes out of comment tokens.
/// An allow must be its own comment — the comment body must *start*
/// with `lint:allow`, so prose that merely mentions the syntax (like
/// this doc comment) is never parsed. Malformed ones (unknown rule,
/// missing reason) become findings.
fn collect_allows(rel: &str, toks: &[Token], findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        i += 1;
        if t.kind != TokKind::Comment {
            continue;
        }
        let Some(rest) = allow_body(&t.text) else {
            continue;
        };
        let parsed = (|| {
            let rest = rest.strip_prefix('(')?;
            let close = rest.find(')')?;
            let rule = rest[..close].trim().to_string();
            let after = rest[close + 1..].trim_start();
            let reason = after.strip_prefix(':')?.trim();
            Some((rule, reason.to_string()))
        })();
        match parsed {
            Some((rule, reason)) if ALL_RULES.contains(&rule.as_str()) && !reason.is_empty() => {
                // A wrapped reason continues onto following comment lines;
                // extend coverage through the contiguous run (stopping at
                // any comment that starts its own allow).
                let mut end = t.line + t.text.matches('\n').count() as u32;
                while i < toks.len()
                    && toks[i].kind == TokKind::Comment
                    && toks[i].line == end + 1
                    && allow_body(&toks[i].text).is_none()
                {
                    end = toks[i].line + toks[i].text.matches('\n').count() as u32;
                    i += 1;
                }
                allows.push(Allow {
                    rule,
                    line: t.line,
                    end_line: end + 1,
                    used: false,
                });
            }
            Some((rule, _)) if !ALL_RULES.contains(&rule.as_str()) => {
                findings.push(Finding {
                    rule: R_MALFORMED_ALLOW,
                    file: rel.to_string(),
                    line: t.line,
                    msg: format!("lint:allow names unknown rule `{rule}`"),
                });
            }
            _ => {
                findings.push(Finding {
                    rule: R_MALFORMED_ALLOW,
                    file: rel.to_string(),
                    line: t.line,
                    msg: "lint:allow must be `lint:allow(<rule>): <reason>` with a non-empty \
                          reason"
                        .to_string(),
                });
            }
        }
    }
    allows
}

/// If `text` is a comment whose body *starts* with `lint:allow`, return
/// what follows; prose that merely mentions the syntax returns `None`.
fn allow_body(text: &str) -> Option<&str> {
    let body = text
        .trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start_matches('!')
        .trim_start();
    body.strip_prefix("lint:allow")
}

/// Mark tokens inside `#[test]` / `#[cfg(test)]`-gated items, so test
/// code is free to unwrap, print, and allocate.
fn mask_test_regions(toks: &[Token]) -> Vec<bool> {
    let mut masked = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && next_punct_is(toks, i + 1, "["))
        {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some((attr_end, is_test)) = parse_attr(toks, i) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes / comments, then mask to the end of
        // the item body (`{ … }`); a `;` first means no body.
        let mut j = attr_end + 1;
        loop {
            match next_code_token(toks, j) {
                Some(k) if toks[k].kind == TokKind::Punct && toks[k].text == "#" => {
                    match parse_attr(toks, k) {
                        Some((e, _)) => j = e + 1,
                        None => break,
                    }
                }
                Some(_) => break,
                None => break,
            }
        }
        let mut depth_paren = 0i32;
        let mut depth_brace = 0i32;
        let mut end = None;
        let mut k = j;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth_paren += 1,
                    ")" | "]" => depth_paren -= 1,
                    "{" => depth_brace += 1,
                    "}" => {
                        depth_brace -= 1;
                        if depth_brace == 0 {
                            end = Some(k);
                            break;
                        }
                    }
                    ";" if depth_paren == 0 && depth_brace == 0 => break, // no body
                    _ => {}
                }
            }
            k += 1;
        }
        if let Some(e) = end {
            for slot in masked.iter_mut().take(e + 1).skip(attr_start) {
                *slot = true;
            }
            i = e + 1;
        } else {
            i = attr_end + 1;
        }
    }
    masked
}

/// Parse the attribute starting at the `#` token `i` (next token must be
/// `[`). Returns (index of closing `]`, contains-test) where
/// contains-test means the ident `test` appears outside any `not(...)`.
fn parse_attr(toks: &[Token], i: usize) -> Option<(usize, bool)> {
    let open = next_code_token(toks, i + 1)?;
    if !(toks[open].kind == TokKind::Punct && toks[open].text == "[") {
        return None;
    }
    let mut depth_bracket = 1i32;
    let mut depth_paren = 0i32;
    let mut not_depths: Vec<i32> = Vec::new();
    let mut has_test = false;
    let mut k = open + 1;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "[" => depth_bracket += 1,
                "]" => {
                    depth_bracket -= 1;
                    if depth_bracket == 0 {
                        return Some((k, has_test));
                    }
                }
                "(" => depth_paren += 1,
                ")" => {
                    depth_paren -= 1;
                    while not_depths.last().is_some_and(|&d| d > depth_paren) {
                        not_depths.pop();
                    }
                }
                _ => {}
            },
            TokKind::Ident if t.text == "not" && next_punct_is(toks, k + 1, "(") => {
                not_depths.push(depth_paren + 1);
            }
            TokKind::Ident if t.text == "test" && not_depths.is_empty() => {
                has_test = true;
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// For every token, the name of the function whose body contains it
/// (None at module / impl level). Closures and nested blocks inherit;
/// nested `fn`s shadow.
fn enclosing_fns(toks: &[Token]) -> Vec<Option<String>> {
    let mut out = vec![None; toks.len()];
    let mut stack: Vec<Option<String>> = vec![None];
    let mut pending: Option<String> = None;
    let mut depth_paren = 0i32;
    for i in 0..toks.len() {
        let t = &toks[i];
        out[i] = stack.last().cloned().flatten();
        match t.kind {
            TokKind::Ident if t.text == "fn" => {
                if let Some(n) = next_code_token(toks, i + 1) {
                    if toks[n].kind == TokKind::Ident {
                        pending = Some(toks[n].text.clone());
                    }
                }
            }
            TokKind::Punct => match t.text.as_str() {
                "(" | "[" => depth_paren += 1,
                ")" | "]" => depth_paren -= 1,
                ";" if depth_paren == 0 => pending = None, // trait method decl
                "{" => {
                    let inherit = stack.last().cloned().flatten();
                    stack.push(pending.take().or(inherit));
                }
                "}" if stack.len() > 1 => {
                    stack.pop();
                }
                _ => {}
            },
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn cfg_hot(file: &str) -> Config {
        Config::parse(&format!("[[hot]]\nfile = \"{file}\"")).unwrap()
    }

    fn check(src: &str, cfg: &Config) -> Vec<Finding> {
        check_file("f.rs", src, cfg, true)
    }

    #[test]
    fn unsafe_block_without_safety_fires() {
        let f = check("fn f() { unsafe { g(); } }", &Config::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, R_SAFETY);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src = "fn f() {\n    // SAFETY: g is sound because reasons.\n    unsafe { g(); }\n}";
        assert!(check(src, &Config::default()).is_empty());
    }

    #[test]
    fn safety_through_attribute_line() {
        let src =
            "// SAFETY: sound because reasons.\n#[allow(clippy::x)]\nunsafe impl Send for T {}";
        assert!(check(src, &Config::default()).is_empty());
    }

    #[test]
    fn each_unsafe_site_needs_its_own_comment() {
        let src = "fn f() {\n// SAFETY: only covers the first.\nlet a = unsafe { g() };\nlet b = unsafe { h() };\n}";
        let f = check(src, &Config::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn statement_prefix_on_same_line_is_skipped() {
        let src = "fn f() {\n    // SAFETY: fine.\n    let x = unsafe { g() };\n}";
        assert!(check(src, &Config::default()).is_empty());
    }

    #[test]
    fn multiline_comment_run_counts() {
        let src = "fn f() {\n// Long explanation first.\n// SAFETY: the actual contract.\n// More detail after.\nunsafe { g(); }\n}";
        assert!(check(src, &Config::default()).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "fn f() { let s = \"unsafe { }\"; /* unsafe impl */ }";
        assert!(check(src, &Config::default()).is_empty());
    }

    #[test]
    fn unsafe_fn_and_impl_kinds() {
        let sites = scan_unsafe(&lex("unsafe fn f() {} unsafe impl S for T {} unsafe { }"));
        let kinds: Vec<_> = sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["fn", "impl", "block"]);
    }

    #[test]
    fn hot_unwrap_fires_and_names_fn() {
        let cfg = cfg_hot("f.rs");
        let f = check("fn rx(x: Option<u8>) { x.unwrap(); }", &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, R_HOT_PANIC);
        assert!(f[0].msg.contains("rx"));
        assert!(f[0].msg.contains(".unwrap()"));
    }

    #[test]
    fn hot_rules_cover_alloc_panic_clock() {
        let cfg = cfg_hot("f.rs");
        let src = r#"fn rx() {
            let v = Vec::new();
            let b = Box::new(1);
            let s = format!("x");
            let t = Instant::now();
            let e = t.elapsed();
            let w = vec![0u8; 4];
            panic!("no");
            assert_eq!(1, 1);
        }"#;
        let f = check(src, &cfg);
        let rules: Vec<_> = f.iter().map(|x| x.rule).collect();
        assert_eq!(f.len(), 8, "{f:?}");
        assert_eq!(rules.iter().filter(|r| **r == R_HOT_ALLOC).count(), 4);
        assert_eq!(rules.iter().filter(|r| **r == R_HOT_PANIC).count(), 2);
        assert_eq!(rules.iter().filter(|r| **r == R_HOT_CLOCK).count(), 2);
    }

    #[test]
    fn transport_clock_reads_are_clock_reads() {
        let cfg = cfg_hot("f.rs");
        let f = check("fn rx(t: &T) -> u64 { t.now_ns() }", &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, R_HOT_CLOCK);
        // … except in the clock's own forwarding implementation.
        let f = check("fn now_ns(&self) -> u64 { self.clock.now_ns() }", &cfg);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn debug_assert_is_allowed_in_hot_fns() {
        let cfg = cfg_hot("f.rs");
        let f = check(
            "fn rx() { debug_assert!(true); debug_assert_eq!(1, 1); }",
            &cfg,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cold_fn_in_hot_file_is_exempt_via_fns_list() {
        let cfg = Config::parse("[[hot]]\nfile = \"f.rs\"\nfns = [\"rx\"]").unwrap();
        let src = "fn rx() {} fn setup(x: Option<u8>) { x.unwrap(); }";
        assert!(check(src, &cfg).is_empty());
    }

    #[test]
    fn skip_fns_exempts_named_fn_only() {
        let cfg = Config::parse("[[hot]]\nfile = \"f.rs\"\nskip_fns = [\"new\"]").unwrap();
        let src = "fn new(x: Option<u8>) { x.unwrap(); } fn hot(y: Option<u8>) { y.unwrap(); }";
        let f = check(src, &cfg);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("hot"));
    }

    #[test]
    fn test_mod_in_hot_file_is_masked() {
        let cfg = cfg_hot("f.rs");
        let src = "fn rx() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u8>.unwrap(); println!(\"x\"); }\n}";
        assert!(check(src, &cfg).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let cfg = cfg_hot("f.rs");
        let src = "#[cfg(not(test))]\nfn rx(x: Option<u8>) { x.unwrap(); }";
        let f = check(src, &cfg);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn nested_fn_names_resolve() {
        let cfg = Config::parse("[[hot]]\nfile = \"f.rs\"\nfns = [\"outer\"]").unwrap();
        // `inner` is not hot, `outer` code after `inner` still is.
        let src = "fn outer(a: Option<u8>) { fn inner(b: Option<u8>) { b.unwrap(); } a.unwrap(); }";
        let f = check(src, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("outer"));
    }

    #[test]
    fn closures_inherit_the_enclosing_fn() {
        let cfg = cfg_hot("f.rs");
        let src = "fn rx(v: Vec<Option<u8>>) { v.iter().for_each(|x| { x.unwrap(); }); }";
        let f = check(src, &cfg);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("rx"));
    }

    #[test]
    fn println_in_library_fires_and_test_code_is_exempt() {
        let src =
            "fn f() { println!(\"x\"); }\n#[cfg(test)]\nmod t { fn g() { println!(\"y\"); } }";
        let f = check(src, &Config::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, R_PRINT);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn allow_suppresses_exactly_one_finding() {
        let cfg = cfg_hot("f.rs");
        let src = "fn rx(a: Option<u8>, b: Option<u8>) {\n    // lint:allow(hot-path-panic): a is checked by caller.\n    a.unwrap();\n    b.unwrap();\n}";
        let f = check(src, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn trailing_same_line_allow_works() {
        let cfg = cfg_hot("f.rs");
        let src = "fn rx(a: Option<u8>) { a.unwrap(); // lint:allow(hot-path-panic): checked.\n}";
        assert!(check(src, &cfg).is_empty());
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let f = check(
            "// lint:allow(hot-path-panic): nothing here.\nfn f() {}",
            &Config::default(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, R_UNUSED_ALLOW);
    }

    #[test]
    fn malformed_allow_is_a_finding() {
        let f = check(
            "// lint:allow(hot-path-panic)\nfn f() {}",
            &Config::default(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, R_MALFORMED_ALLOW);

        let f = check(
            "// lint:allow(bogus-rule): why.\nfn f() {}",
            &Config::default(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, R_MALFORMED_ALLOW);
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let cfg = cfg_hot("f.rs");
        let src = "fn rx(a: Option<u8>) {\n    // lint:allow(hot-path-alloc): wrong rule.\n    a.unwrap();\n}";
        let f = check(src, &cfg);
        // The unwrap still fires AND the allow is unused.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == R_HOT_PANIC));
        assert!(f.iter().any(|x| x.rule == R_UNUSED_ALLOW));
    }

    #[test]
    fn instant_now_in_nonhot_fn_is_fine() {
        let cfg = Config::parse("[[hot]]\nfile = \"f.rs\"\nfns = [\"rx\"]").unwrap();
        let src = "fn rx() {} fn clock() -> Instant { Instant::now() }";
        assert!(check(src, &cfg).is_empty());
    }
}
