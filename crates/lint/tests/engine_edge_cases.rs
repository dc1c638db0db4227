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
    r#"this "raw" body says Result<u8, String> and Err(format!("x"))"#
}
"####;
    assert!(rules_of(src).is_empty(), "{:?}", rules_of(src));
}

#[test]
fn text_after_a_raw_string_is_still_linted() {
    let src = r####"
pub fn f(xs: &[u32]) -> usize {
    let _s = r#"benign "quoted" text"#;
    let _r: Result<usize, String> = Ok(xs.len());
    0
}
"####;
    assert_eq!(rules_of(src), vec!["error-taxonomy"]);
}

#[test]
fn nested_block_comments_hide_violations_and_end_correctly() {
    let src = "
pub fn f() -> u32 {
    /* outer /* inner Result<u16, String> */ still outer */
    let x = 1u32; // after the comment, code is linted again
    let _r: Result<u32, String> = Ok(x);
    x
}
";
    assert_eq!(rules_of(src), vec!["error-taxonomy"]);
}

#[test]
fn char_literals_and_lifetimes_do_not_confuse_the_lexer() {
    // A lifetime tick must not swallow the rest of the line; the
    // violation after it must still be found.
    let src = "
pub fn f<'a>(xs: &'a [char]) -> usize {
    let tick = '\\'';
    let check = 'x';
    if tick == check { return 0; }
    let _r: Result<usize, String> = Ok(xs.len());
    0
}
";
    assert_eq!(rules_of(src), vec!["error-taxonomy"]);
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
            let _: Result<u32, String> = Ok(1);
            let _: Result<u32, String> = Err(format!(\"{}\", 2));
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
    fn t() -> Result<u8, String> { Ok(0) }
}

pub fn shipped(xs: &[u32]) -> Result<usize, String> {
    Ok(xs.len())
}
";
    assert_eq!(rules_of(src), vec!["error-taxonomy"]);
}

#[test]
fn test_fn_attribute_exempts_only_that_item() {
    let src = "
#[test]
fn a_test() { let _: Result<u8, String> = Ok(7); }

pub fn shipped(xs: &[u32]) -> Result<usize, String> {
    Ok(xs.len())
}
";
    assert_eq!(rules_of(src), vec!["error-taxonomy"]);
}

#[test]
fn pragma_reason_is_required_for_suppression() {
    let with_reason = "pub fn f() -> Result<u8, String> { // dvicl-lint: allow(error-taxonomy) -- shown verbatim\n    Ok(0)\n}\n";
    assert!(rules_of(with_reason).is_empty());

    let without =
        "pub fn f() -> Result<u8, String> { // dvicl-lint: allow(error-taxonomy)\n    Ok(0)\n}\n";
    let rules = rules_of(without);
    assert!(
        rules.contains(&dvicl_lint::PRAGMA_MISSING_REASON),
        "{rules:?}"
    );
    assert!(rules.contains(&"error-taxonomy"), "{rules:?}");
}
