//! Spanned language errors (the SAQL *error reporter*).

use std::fmt;

/// A half-open byte region of the query source, with 1-based line/column of
/// its start for human-readable rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub fn new(start: usize, end: usize, line: u32, col: u32) -> Self {
        Span {
            start,
            end,
            line,
            col,
        }
    }

    /// Merge two spans into the smallest span covering both.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
            col: if other.line < self.line {
                other.col
            } else {
                self.col
            },
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Bytes of the offending line a rendered error shows either side of its
/// span; a longer line is cut, and `…` marks each cut.
const CONTEXT: usize = 80;

/// Phase that produced an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Lex,
    Parse,
    Semantic,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Lex => write!(f, "lex"),
            Phase::Parse => write!(f, "parse"),
            Phase::Semantic => write!(f, "semantic"),
        }
    }
}

/// A spanned SAQL language error.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    pub phase: Phase,
    pub message: String,
    pub span: Span,
}

impl LangError {
    pub fn lex(message: impl Into<String>, span: Span) -> Self {
        LangError {
            phase: Phase::Lex,
            message: message.into(),
            span,
        }
    }

    pub fn parse(message: impl Into<String>, span: Span) -> Self {
        LangError {
            phase: Phase::Parse,
            message: message.into(),
            span,
        }
    }

    pub fn semantic(message: impl Into<String>, span: Span) -> Self {
        LangError {
            phase: Phase::Semantic,
            message: message.into(),
            span,
        }
    }

    /// Render the error with the offending source line and a caret marker:
    ///
    /// ```text
    /// parse error at 3:9: expected entity type
    ///   |
    /// 3 | proc p1[ start proc p2
    ///   |         ^
    /// ```
    ///
    /// A line longer than the span and 80 bytes either side of it is shown
    /// cut to that window, so the rendering stays small whatever the
    /// query's size.
    pub fn render(&self, source: &str) -> String {
        let mut out = format!("{self}\n");
        // Line numbers are 1-based; a zero line (`Span::default()`) means
        // the error has no source location — e.g. a duplicate registration
        // — so pointing a caret at the query text would mislead.
        if self.span.line == 0 {
            return out;
        }
        if let Some(line_text) = source
            .lines()
            .nth(self.span.line.saturating_sub(1) as usize)
        {
            let ln = self.span.line;
            let gutter = " ".repeat(ln.to_string().len());
            let (shown, pad, carets) = window(line_text, self.span);
            out.push_str(&format!("{gutter} |\n{ln} | {shown}\n{gutter} | "));
            out.push_str(&" ".repeat(pad));
            out.push_str(&"^".repeat(carets));
            out.push('\n');
        }
        out
    }
}

/// The part of `line` an error shows for `span`: at most [`CONTEXT`]
/// bytes either side of it, `…` at each cut, with the caret's offset and
/// width under it.
fn window(line: &str, span: Span) -> (String, usize, usize) {
    let col = (span.col.saturating_sub(1) as usize).min(line.len());
    let width = (span.end - span.start).max(1);
    let mut from = col.saturating_sub(CONTEXT);
    while !line.is_char_boundary(from) {
        from -= 1;
    }
    let mut to = (col + width.min(CONTEXT) + CONTEXT).min(line.len());
    while !line.is_char_boundary(to) {
        to += 1;
    }
    let head = if from > 0 { "…" } else { "" };
    let tail = if to < line.len() { "…" } else { "" };
    let shown = format!("{head}{}{tail}", &line[from..to]);
    let pad = col - from + usize::from(from > 0);
    (shown, pad, width.min(to - from + 1))
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.span.line == 0 {
            write!(f, "{} error: {}", self.phase, self.message)
        } else {
            write!(f, "{} error at {}: {}", self.phase, self.span, self.message)
        }
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(4, 8, 1, 5);
        let b = Span::new(10, 12, 2, 1);
        let m = a.to(b);
        assert_eq!((m.start, m.end), (4, 12));
        assert_eq!(m.line, 1);
    }

    #[test]
    fn render_points_at_column() {
        let src = "alert x >\nreturn p";
        let err = LangError::parse("expected expression", Span::new(9, 10, 1, 9));
        let shown = err.render(src);
        assert!(shown.contains("parse error at 1:9"), "{shown}");
        assert!(shown.contains("1 | alert x >"), "{shown}");
        assert!(
            shown.lines().last().unwrap().trim_end().ends_with('^'),
            "{shown}"
        );
    }

    #[test]
    fn a_long_line_renders_a_window_around_the_span() {
        let src = format!("alert {} > x\nreturn p", "a + ".repeat(10_000));
        let col = 6 + 4 * 5_000 + 3; // a `+` mid-line
        let err = LangError::parse("unexpected", Span::new(col - 1, col, 1, col as u32));
        let shown = err.render(&src);
        assert!(shown.len() < 400, "{} bytes", shown.len());
        let lines: Vec<&str> = shown.lines().collect();
        let text = lines[2].strip_prefix("1 | ").unwrap();
        assert!(text.starts_with('…') && text.ends_with('…'), "{text}");
        let caret = lines[3].strip_prefix("  | ").unwrap();
        assert_eq!(caret.trim_start(), "^");
        let under = text.chars().nth(caret.len() - 1);
        assert_eq!(under, Some('+'), "{shown}");
        // The same error on a line that fits shows it whole, as before.
        let short = "alert a + > x";
        let err = LangError::parse("unexpected", Span::new(8, 9, 1, 9));
        assert_eq!(
            err.render(short),
            "parse error at 1:9: unexpected\n  |\n1 | alert a + > x\n  |         ^\n"
        );
    }

    #[test]
    fn display_mentions_phase() {
        let err = LangError::semantic("unknown variable `p9`", Span::default());
        assert!(err.to_string().contains("semantic error"));
    }

    #[test]
    fn locationless_errors_render_without_snippet_or_position() {
        // A default span means "no source location": no bogus `at 0:0`, no
        // caret blaming an unrelated line of the query text.
        let err = LangError::semantic("query name `q` is already registered", Span::default());
        assert_eq!(
            err.to_string(),
            "semantic error: query name `q` is already registered"
        );
        let shown = err.render("proc p start proc q as e\nreturn p");
        assert!(!shown.contains("at 0:0"), "{shown}");
        assert!(!shown.contains('^'), "{shown}");
        assert!(!shown.contains("proc p"), "{shown}");
    }
}
