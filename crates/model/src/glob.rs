//! SQL-`LIKE` style wildcard matching for SAQL attribute patterns.
//!
//! SAQL entity declarations constrain attributes with patterns such as
//! `proc p1["%cmd.exe"]`, where `%` matches any (possibly empty) substring
//! and `_` matches exactly one character. Matching is case-insensitive for
//! ASCII, mirroring Windows path semantics in the paper's queries
//! (`%osql.exe` must match `C:\...\OSQL.EXE`).

/// Returns `true` if `text` matches the `LIKE`-style `pattern`.
///
/// * `%` — any run of characters (including empty);
/// * `_` — exactly one character;
/// * everything else matches itself, ASCII case-insensitively.
///
/// A pattern `%` is always a wildcard, also where the text holds a `%`
/// (`%cmd.exe` matches the unexpanded `%windir%\system32\cmd.exe`).
///
/// The classic two-pointer walk with backtracking to the most recent `%`,
/// over the two strings' `chars()` in place: O(|text| · |pattern|) worst
/// case, O(|text|) for patterns with a single `%`, and no allocation — the
/// scheduler calls this once per candidate predicate per event.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (pattern.chars(), text.chars());
    // Where to resume after the most recent `%`: the pattern just past it,
    // and the text from the first character the star does not yet cover.
    let mut star: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let mut t_next = t.clone();
        let Some(tc) = t_next.next() else { break };
        let mut p_next = p.clone();
        match p_next.next() {
            Some('%') => {
                star = Some((p_next.clone(), t.clone()));
                p = p_next;
            }
            Some(pc) if pc == '_' || eq_ci(pc, tc) => (p, t) = (p_next, t_next),
            _ => match &mut star {
                // Grow the region the star covers by one character and retry.
                Some((star_p, star_t)) => {
                    star_t.next();
                    (p, t) = (star_p.clone(), star_t.clone());
                }
                None => return false,
            },
        }
    }
    // Remaining pattern must be all `%`.
    p.all(|c| c == '%')
}

#[inline]
fn eq_ci(a: char, b: char) -> bool {
    a == b || a.eq_ignore_ascii_case(&b)
}

/// Returns `true` if the pattern contains no wildcard characters, i.e. it is
/// an exact (ASCII case-insensitive) string constraint. The scheduler's
/// global-filter index keys exactly these (`agentid = "db-server"`): an
/// exact pattern matches a text iff the two are equal under ASCII case
/// folding, so a hash lookup finds every filter that can accept the row.
pub fn is_exact(pattern: &str) -> bool {
    !pattern.contains(['%', '_'])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, read off directly: `%` covers any run (tried at
    /// every length), `_` exactly one character, anything else itself.
    /// Exponential in the worst case — fine for the short strings below.
    fn like_reference(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|i| like_reference(rest, &t[i..])),
            Some(('_', rest)) => !t.is_empty() && like_reference(rest, &t[1..]),
            Some((&pc, rest)) => {
                t.first().is_some_and(|&tc| eq_ci(pc, tc)) && like_reference(rest, &t[1..])
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// Random patterns and texts over a small alphabet that includes
        /// both wildcards (in the text too), mixed case and multi-byte
        /// characters, so `%%`, leading/trailing `_`, empty strings and
        /// backtracking across non-ASCII all occur.
        #[test]
        fn like_match_equals_the_definition(
            pattern in proptest::string::string_regex("[aAbé%_]{0,8}").unwrap(),
            text in proptest::string::string_regex("[aAbBéÉ%_]{0,10}").unwrap(),
        ) {
            let (p, t): (Vec<char>, Vec<char>) = (pattern.chars().collect(), text.chars().collect());
            prop_assert_eq!(
                like_match(&pattern, &text),
                like_reference(&p, &t),
                "pattern={:?} text={:?}", pattern, text
            );
        }

        #[test]
        fn exact_patterns_match_by_ascii_case_folded_equality(
            pattern in proptest::string::string_regex("[aAbBé-]{0,6}").unwrap(),
            text in proptest::string::string_regex("[aAbBéÉ-]{0,6}").unwrap(),
        ) {
            prop_assert!(is_exact(&pattern));
            prop_assert_eq!(like_match(&pattern, &text), pattern.eq_ignore_ascii_case(&text));
        }
    }

    #[test]
    fn exact_match_case_insensitive() {
        assert!(like_match("cmd.exe", "cmd.exe"));
        assert!(like_match("cmd.exe", "CMD.EXE"));
        assert!(!like_match("cmd.exe", "cmd.ex"));
    }

    #[test]
    fn leading_percent_matches_path_prefix() {
        assert!(like_match("%cmd.exe", r"C:\Windows\System32\cmd.exe"));
        assert!(like_match("%osql.exe", "OSQL.EXE"));
        assert!(!like_match("%cmd.exe", r"C:\Windows\cmd.exe.bak"));
    }

    #[test]
    fn trailing_and_inner_percent() {
        assert!(like_match("backup%", "backup1.dmp"));
        assert!(like_match("%backup%.dmp", "db-backup1.dmp"));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a%b%c", "aXXcYYb"));
    }

    #[test]
    fn underscore_matches_single_char() {
        assert!(like_match("backup_.dmp", "backup1.dmp"));
        assert!(!like_match("backup_.dmp", "backup12.dmp"));
        assert!(!like_match("backup_.dmp", "backup.dmp"));
    }

    #[test]
    fn percent_matches_empty() {
        assert!(like_match("%", ""));
        assert!(like_match("%%", "abc"));
        assert!(like_match("a%", "a"));
    }

    #[test]
    fn empty_pattern_only_matches_empty_text() {
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
    }

    #[test]
    fn backtracking_stress() {
        // Pattern that forces the star to re-cover repeatedly.
        assert!(like_match("%a%a%a%", "bbabbabba"));
        assert!(!like_match("%a%a%a%a%", "bbabbabba"));
    }

    #[test]
    fn pattern_percent_is_a_wildcard_even_against_a_text_percent() {
        assert!(like_match("a%", "a%b"));
        assert!(like_match("%a", "%ba"));
    }

    #[test]
    fn leading_percent_matches_an_unexpanded_environment_path() {
        assert!(like_match("%cmd.exe", r"%windir%\system32\cmd.exe"));
        assert!(like_match("%cmd.exe", r"C:\windows\cmd.exe"));
    }

    #[test]
    fn exactness_detection() {
        assert!(is_exact("cmd.exe"));
        assert!(!is_exact("%cmd.exe"));
        assert!(!is_exact("cmd_exe"));
    }
}
