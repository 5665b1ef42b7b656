//! A lightweight item tree recovered from the token stream: functions,
//! the `impl` block and `mod` nesting they sit in, visibility, and test
//! markers.
//!
//! This is deliberately *not* a parser for Rust — it is the minimum
//! structure the cross-crate call graph needs: for every `fn` in a file,
//! its name, a display-qualified path (`crate::module::Type::name`), its
//! body's token range, whether it is `pub`, and whether it is test code
//! (`#[test]`, or inside a `#[cfg(test)]` module). Everything else
//! (generics, lifetimes, where-clauses, trait bounds) is skipped over.

use crate::lexer::Tok;
use crate::rules::{is_ident, matching_close};

/// One function item recovered from a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's bare name (`snap_groups`, `new`, `place`).
    pub name: String,
    /// Display path: `crate::module::Type::name` (crate omitted when
    /// unknown, e.g. workspace-level `tests/`).
    pub qual: String,
    /// The `impl` self type the fn is defined on, if any (`StructurePlacer`
    /// for `impl StructurePlacer { fn place … }`; the *type*, not the
    /// trait, for `impl Trait for Type`).
    pub impl_type: Option<String>,
    /// `pub` without a restriction (`pub(crate)` etc. do not count: they
    /// are not external API surface).
    pub is_pub: bool,
    /// Marked `#[test]`, carries `#[cfg(test)]`, or sits inside a
    /// `#[cfg(test)]` module.
    pub is_test: bool,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range `(open, close)` of the body braces; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
}

impl FnItem {
    /// Does the body (if any) contain token index `ix`?
    pub fn body_contains(&self, ix: usize) -> bool {
        self.body.is_some_and(|(a, b)| ix > a && ix < b)
    }

    /// Body token span length — used to pick the *innermost* enclosing fn
    /// when bodies nest (a `fn` defined inside another `fn`).
    pub fn body_len(&self) -> usize {
        self.body.map_or(usize::MAX, |(a, b)| b - a)
    }
}

/// Scope kinds tracked while walking the token stream.
#[derive(Debug)]
enum Scope {
    Mod {
        name: String,
        end: usize,
        test: bool,
    },
    Impl {
        self_type: Option<String>,
        end: usize,
    },
    /// Any other braced region (fn body, match, loop…): tracked only so
    /// `mod`/`impl` scopes pop at the right brace.
    Other { end: usize },
}

impl Scope {
    fn end(&self) -> usize {
        match self {
            Scope::Mod { end, .. } | Scope::Impl { end, .. } | Scope::Other { end } => *end,
        }
    }
}

/// Recovers every `fn` item in a token stream. `crate_name` prefixes the
/// display path (pass `""` for files outside a crate).
pub fn parse_items(toks: &[Tok], crate_name: &str) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while scopes.last().is_some_and(|s| s.end() <= i) {
            scopes.pop();
        }
        match toks[i].text.as_str() {
            "mod" => {
                // `mod name { … }`; `mod name;` declares an out-of-line
                // module — the file it names carries its own items.
                let name = toks.get(i + 1).map(|t| t.text.clone()).unwrap_or_default();
                if toks.get(i + 2).map(|t| t.text.as_str()) == Some("{") {
                    let end = matching_close(toks, i + 2);
                    let test = attr_window(toks, i).test;
                    scopes.push(Scope::Mod { name, end, test });
                    i += 3;
                    continue;
                }
                i += 1;
            }
            "impl" => {
                // Find the block: first `{` before a `;` (a bodyless
                // `impl Trait for Type;` does not exist; `;` guards
                // against pathological streams).
                let mut j = i + 1;
                while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                    j += 1;
                }
                if j < toks.len() && toks[j].text == "{" {
                    let end = matching_close(toks, j);
                    scopes.push(Scope::Impl {
                        self_type: impl_self_type(&toks[i + 1..j]),
                        end,
                    });
                    i = j + 1;
                    continue;
                }
                i = j;
            }
            "fn" => {
                let Some(name_tok) = toks.get(i + 1) else {
                    break;
                };
                let attrs = attr_window(toks, i);
                // Body: first `{` or `;` at bracket depth 0 after the
                // signature (return types carry no braces).
                let mut depth = 0i32;
                let mut j = i + 1;
                let mut body = None;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => {
                            body = Some((j, matching_close(toks, j)));
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let impl_type = scopes.iter().rev().find_map(|s| match s {
                    Scope::Impl { self_type, .. } => Some(self_type.clone()),
                    _ => None,
                });
                let in_test_mod = scopes
                    .iter()
                    .any(|s| matches!(s, Scope::Mod { test: true, .. }));
                let mut qual = String::new();
                if !crate_name.is_empty() {
                    qual.push_str(crate_name);
                }
                for s in &scopes {
                    if let Scope::Mod { name, .. } = s {
                        if !qual.is_empty() {
                            qual.push_str("::");
                        }
                        qual.push_str(name);
                    }
                }
                if let Some(Some(t)) = impl_type.as_ref().map(|o| o.as_ref()) {
                    if !qual.is_empty() {
                        qual.push_str("::");
                    }
                    qual.push_str(t);
                }
                if !qual.is_empty() {
                    qual.push_str("::");
                }
                qual.push_str(&name_tok.text);
                out.push(FnItem {
                    name: name_tok.text.clone(),
                    qual,
                    impl_type: impl_type.flatten(),
                    is_pub: attrs.is_pub,
                    is_test: attrs.test || in_test_mod,
                    fn_tok: i,
                    body,
                    line: toks[i].line,
                });
                // Continue *into* the signature/body: nested fns and the
                // scopes they open are picked up by the same walk.
                i += 1;
            }
            "{" => {
                scopes.push(Scope::Other {
                    end: matching_close(toks, i),
                });
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// The self type of an `impl` header: the first path segment after `for`
/// (trait impls), else the first identifier after the generic parameter
/// list (inherent impls and `impl<T> Foo<T>`).
fn impl_self_type(header: &[Tok]) -> Option<String> {
    let mut seg = header;
    if let Some(pos) = header.iter().position(|t| t.text == "for") {
        seg = &header[pos + 1..];
    } else if header.first().is_some_and(|t| t.text == "<") {
        // Skip the `<…>` generic list (angle brackets nest).
        let mut depth = 0i32;
        let mut k = 0usize;
        while k < header.len() {
            match header[k].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        seg = &header[k..];
    }
    seg.iter()
        .find(|t| is_ident(&t.text) && !matches!(t.text.as_str(), "dyn" | "mut" | "const"))
        .map(|t| t.text.clone())
}

#[derive(Debug, Default)]
struct Attrs {
    is_pub: bool,
    test: bool,
}

/// Scans backward from the token at `ix` over the item's attributes and
/// visibility: everything since the previous `;`, `{`, or `}`. Detects
/// `pub` (unrestricted), `#[test]`, and `#[cfg(test)]`.
fn attr_window(toks: &[Tok], ix: usize) -> Attrs {
    let mut start = ix;
    while start > 0 && ix - start < 60 {
        let s = toks[start - 1].text.as_str();
        if s == ";" || s == "{" || s == "}" {
            break;
        }
        start -= 1;
    }
    let win = &toks[start..ix];
    let mut a = Attrs::default();
    for (k, t) in win.iter().enumerate() {
        match t.text.as_str() {
            // `pub(crate)`/`pub(super)` are not external API.
            "pub" if win.get(k + 1).map(|t| t.text.as_str()) != Some("(") => {
                a.is_pub = true;
            }
            "test" => {
                // `#[test]` or `#[cfg(test)]` / `#[cfg(all(test, …))]`.
                let attr_open = k >= 2 && win[k - 1].text == "[" && win[k - 2].text == "#";
                let cfg_like = win[..k]
                    .iter()
                    .rev()
                    .take(6)
                    .any(|t| t.text == "cfg" || t.text == "all");
                if attr_open || cfg_like {
                    a.test = true;
                }
            }
            _ => {}
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean, tokenize};

    fn items(src: &str) -> Vec<FnItem> {
        parse_items(&tokenize(&clean(src).code), "demo")
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let src = "pub fn free() {}\n\
                   struct S;\n\
                   impl S { fn method(&self) -> u32 { 1 } }\n\
                   impl std::fmt::Display for S {\n\
                       fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
                   }\n";
        let fns = items(src);
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].qual, "demo::free");
        assert!(fns[0].is_pub);
        assert_eq!(fns[1].qual, "demo::S::method");
        assert!(!fns[1].is_pub);
        assert_eq!(fns[2].qual, "demo::S::fmt");
        assert_eq!(fns[2].impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn generic_impls_resolve_self_type() {
        let fns = items("impl<T: Clone> Wrapper<T> { pub fn get(&self) -> &T { &self.0 } }");
        assert_eq!(fns[0].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn mod_nesting_and_cfg_test() {
        let src = "mod outer {\n\
                       pub fn in_outer() {}\n\
                       #[cfg(test)]\n\
                       mod tests {\n\
                           #[test]\n\
                           fn a_test() { helper(); }\n\
                           fn helper() {}\n\
                       }\n\
                   }\n\
                   fn top() {}\n";
        let fns = items(src);
        let by_name = |n: &str| fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("in_outer").qual, "demo::outer::in_outer");
        assert!(!by_name("in_outer").is_test);
        assert!(by_name("a_test").is_test, "#[test] marks test");
        assert!(by_name("helper").is_test, "cfg(test) mod marks test");
        assert!(!by_name("top").is_test);
        assert_eq!(by_name("top").qual, "demo::top");
    }

    #[test]
    fn pub_crate_is_not_public_api() {
        let fns = items("pub(crate) fn internal() {}");
        assert!(!fns[0].is_pub);
    }

    #[test]
    fn nested_fns_both_found() {
        let fns = items("fn outer() { fn inner() { x(); } inner(); }");
        assert_eq!(fns.len(), 2);
        let outer = &fns[0];
        let inner = &fns[1];
        assert!(outer.body_len() > inner.body_len());
    }

    #[test]
    fn bodyless_trait_method() {
        let fns = items("trait T { fn required(&self) -> f64; }");
        assert_eq!(fns.len(), 1);
        assert!(fns[0].body.is_none());
    }
}
