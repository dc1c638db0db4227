//! Suppression pragmas: `// dvicl-lint: allow(<rule>[, <rule>...]) -- <reason>`.
//!
//! A pragma silences findings of the named rules on its own line and on
//! the line immediately below it, so both styles work:
//!
//! ```text
//! for v in 0..n { // dvicl-lint: allow(budget-reachability) -- one pass over n
//!
//! // dvicl-lint: allow(budget-reachability) -- one pass over n
//! for v in 0..n {
//! ```
//!
//! The reason is mandatory: a pragma without a non-empty `-- reason`
//! tail does **not** suppress anything and is itself reported as a
//! `pragma-missing-reason` finding. Naming a rule that does not exist is
//! reported as `pragma-unknown-rule`. Both keep the suppression surface
//! auditable — every silenced finding carries a stated invariant.

/// A parsed (possibly malformed) suppression pragma.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// 1-based line the pragma comment starts on.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// Rule ids named in `allow(...)`.
    pub rules: Vec<String>,
    /// The stated reason, `None` when the `-- reason` tail is missing
    /// or empty.
    pub reason: Option<String>,
}

impl Pragma {
    /// Whether this pragma (if well-formed) suppresses `rule` at
    /// 1-based `line`.
    pub fn suppresses(&self, rule: &str, line: u32) -> bool {
        self.reason.is_some()
            && (line == self.line || line == self.line + 1)
            && self.rules.iter().any(|r| r == rule)
    }
}

/// Parses the text of one line comment (including the leading `//`).
/// Returns `None` when the comment is not a dvicl-lint pragma at all.
/// Malformed pragmas (no `allow(...)` clause) come back with an empty
/// rule list so the engine can flag them.
pub fn parse(comment: &str, line: u32, col: u32) -> Option<Pragma> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("dvicl-lint:")?.trim();
    let (clause, tail) = match rest.find(')') {
        Some(i) => (&rest[..=i], &rest[i + 1..]),
        None => (rest, ""),
    };
    let rules = clause
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
        .map(|inner| {
            inner
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    let reason = tail
        .trim()
        .strip_prefix("--")
        .map(|r| r.trim())
        .filter(|r| !r.is_empty())
        .map(|r| r.to_string());
    Some(Pragma {
        line,
        col,
        rules,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_pragma() {
        let p = parse(
            "// dvicl-lint: allow(error-taxonomy) -- message shown verbatim",
            7,
            3,
        )
        .unwrap();
        assert_eq!(p.rules, vec!["error-taxonomy"]);
        assert_eq!(p.reason.as_deref(), Some("message shown verbatim"));
        assert!(p.suppresses("error-taxonomy", 7));
        assert!(p.suppresses("error-taxonomy", 8));
        assert!(!p.suppresses("error-taxonomy", 9));
        assert!(!p.suppresses("budget-reachability", 7));
    }

    #[test]
    fn multiple_rules_one_pragma() {
        let p = parse(
            "// dvicl-lint: allow(budget-reachability, error-taxonomy) -- proven in from_cells",
            1,
            1,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(p.suppresses("error-taxonomy", 2));
    }

    #[test]
    fn missing_reason_does_not_suppress() {
        let p = parse("// dvicl-lint: allow(error-taxonomy)", 4, 1).unwrap();
        assert!(p.reason.is_none());
        assert!(!p.suppresses("error-taxonomy", 4));
    }

    #[test]
    fn empty_reason_counts_as_missing() {
        let p = parse("// dvicl-lint: allow(error-taxonomy) --   ", 4, 1).unwrap();
        assert!(p.reason.is_none());
    }

    #[test]
    fn non_pragma_comments_pass_through() {
        assert!(parse("// just a comment", 1, 1).is_none());
        assert!(parse("/// docs about dvicl-lint pragmas", 1, 1).is_none());
    }

    #[test]
    fn malformed_clause_has_no_rules() {
        let p = parse("// dvicl-lint: allowed(error-taxonomy) -- oops", 1, 1).unwrap();
        assert!(p.rules.is_empty());
    }
}
