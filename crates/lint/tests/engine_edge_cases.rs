//! Lexer/engine edge cases exercised through the full `lint_source`
//! pipeline: the rules must see through raw strings, nested comments,
//! char-vs-lifetime ticks, and `#[cfg(test)]` submodules.

use dvicl_lint::lint_source;

const REL: &str = "crates/core/src/fixture.rs";

fn rules_of(src: &str) -> Vec<&'static str> {
    lint_source(REL, src).0.iter().map(|f| f.rule).collect()
}

#[test]
fn raw_strings_do_not_trip_rules() {
    let src = r####"
pub fn f() -> &'static str {
    r#"this "raw" body says 7usize as u8 and std::process::Command"#
}
"####;
    assert!(rules_of(src).is_empty(), "{:?}", rules_of(src));
}

#[test]
fn text_after_a_raw_string_is_still_linted() {
    let src = r####"
pub fn f(xs: &[u32]) -> u32 {
    let _s = r#"benign "quoted" text"#;
    xs.len() as u32
}
"####;
    assert_eq!(rules_of(src), vec!["narrowing-cast"]);
}

#[test]
fn nested_block_comments_hide_violations_and_end_correctly() {
    let src = "
pub fn f() -> u32 {
    /* outer /* inner 7usize as u16 */ still outer */
    let x = 1u32; // after the comment, code is linted again
    x as u8;
    x
}
";
    assert_eq!(rules_of(src), vec!["narrowing-cast"]);
}

#[test]
fn char_literals_and_lifetimes_do_not_confuse_the_lexer() {
    // A lifetime tick must not swallow the rest of the line; the
    // violation after it must still be found.
    let src = "
pub fn f<'a>(xs: &'a [char]) -> u8 {
    let tick = '\\'';
    let check = 'x';
    if tick == check { return 0; }
    xs.len() as u8
}
";
    assert_eq!(rules_of(src), vec!["narrowing-cast"]);
}

#[test]
fn cfg_test_submodules_are_exempt_even_nested() {
    let src = "
pub fn shipped() -> u32 { 1 }

#[cfg(test)]
mod tests {
    use super::*;

    mod deeper {
        #[test]
        fn inner() {
            let xs: Vec<u32> = vec![1];
            let _ = xs.len() as u32;
            let _ = xs[0] as u8;
        }
    }

    #[test]
    fn outer() {
        shipped().to_string();
    }
}
";
    assert!(rules_of(src).is_empty(), "{:?}", rules_of(src));
}

#[test]
fn code_after_a_test_module_is_linted_again() {
    let src = "
#[cfg(test)]
mod tests {
    fn t(x: usize) -> u8 { x as u8 }
}

pub fn shipped(xs: &[u32]) -> u32 {
    xs.len() as u32
}
";
    assert_eq!(rules_of(src), vec!["narrowing-cast"]);
}

#[test]
fn test_fn_attribute_exempts_only_that_item() {
    let src = "
#[test]
fn a_test() { let _ = 7usize as u8; }

pub fn shipped(xs: &[u32]) -> u32 {
    xs.len() as u32
}
";
    assert_eq!(rules_of(src), vec!["narrowing-cast"]);
}

#[test]
fn pragma_reason_is_required_for_suppression() {
    let with_reason = "pub fn f(x: usize) -> u32 {\n    x as u32 // dvicl-lint: allow(narrowing-cast) -- x < n <= V::MAX\n}\n";
    assert!(rules_of(with_reason).is_empty());

    let without =
        "pub fn f(x: usize) -> u32 {\n    x as u32 // dvicl-lint: allow(narrowing-cast)\n}\n";
    let rules = rules_of(without);
    assert!(
        rules.contains(&dvicl_lint::PRAGMA_MISSING_REASON),
        "{rules:?}"
    );
    assert!(rules.contains(&"narrowing-cast"), "{rules:?}");
}
