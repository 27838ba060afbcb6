//! Tokenizer for OpenQASM 2.0 source text.
//!
//! Tokens borrow their text from the source: an identifier, a number or a
//! string is a `&str` slice of it, and a [`Token`] is `Copy`. The lexer
//! scans the source's bytes and hands the parser one token at a time, so a
//! parse keeps no token buffer and lexing allocates nothing.
//!
//! Number literals keep their exact lexeme so the parser can defer to
//! `f64::from_str` (correctly rounded) — that is what makes the
//! export → parse round trip bit-exact for gate parameters.

use crate::error::QasmError;

/// One lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind<'a> {
    /// Identifier or keyword (`qreg`, `gate`, `h`, …).
    Id(&'a str),
    /// Integer or real literal, kept as its exact source lexeme.
    Number(&'a str),
    /// A double-quoted string (include filenames), without the quotes.
    Str(&'a str),
    /// Single-character punctuation: `; , ( ) { } [ ] + - * / ^ = < > !`.
    Symbol(char),
    /// The measurement arrow `->`.
    Arrow,
}

impl TokenKind<'_> {
    /// A short human-readable rendering for error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::Id(name) => format!("identifier \"{name}\""),
            TokenKind::Number(text) => format!("number {text}"),
            TokenKind::Str(text) => format!("string \"{text}\""),
            TokenKind::Symbol(c) => format!("'{c}'"),
            TokenKind::Arrow => "'->'".to_string(),
        }
    }
}

/// A token plus the 1-based line it started on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub line: usize,
}

/// Splits a source into tokens on demand.
///
/// Skips whitespace and `//` line comments. A character outside the
/// OpenQASM 2.0 alphabet, or an unterminated string, ends the token stream
/// early; [`Lexer::finish`] then reports it as a positioned [`QasmError`].
pub(crate) struct Lexer<'a> {
    source: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    line: usize,
    /// The first lexical error, once met.
    error: Option<QasmError>,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(source: &'a str) -> Self {
        Self {
            source,
            pos: 0,
            line: 1,
            error: None,
        }
    }

    /// The next token, or `None` at the end of the source or at its first
    /// lexical error.
    pub(crate) fn next_token(&mut self) -> Option<Token<'a>> {
        let bytes = self.source.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            let start = self.pos;
            let kind = match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    continue;
                }
                b'/' if bytes.get(start + 1) == Some(&b'/') => {
                    self.pos = bytes[start..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |end| start + end);
                    continue;
                }
                b'-' if bytes.get(start + 1) == Some(&b'>') => {
                    self.pos += 2;
                    TokenKind::Arrow
                }
                b';' | b',' | b'(' | b')' | b'{' | b'}' | b'[' | b']' | b'+' | b'-' | b'*'
                | b'/' | b'^' | b'=' | b'<' | b'>' | b'!' => {
                    self.pos += 1;
                    TokenKind::Symbol(char::from(b))
                }
                b'"' => {
                    let body = &bytes[start + 1..];
                    match body.iter().position(|&b| b == b'"' || b == b'\n') {
                        Some(end) if body[end] == b'"' => {
                            self.pos = start + 1 + end + 1;
                            TokenKind::Str(&self.source[start + 1..start + 1 + end])
                        }
                        _ => return self.fail(QasmError::at(self.line, "unterminated string")),
                    }
                }
                b if b.is_ascii_digit() || (b == b'.' && is_digit(bytes, start + 1)) => {
                    let mut end = start;
                    while let Some(&b) = bytes.get(end) {
                        if b.is_ascii_digit() || b == b'.' {
                            end += 1;
                        } else if (b == b'e' || b == b'E') && exponent_follows(bytes, end + 1) {
                            end += 1;
                            if matches!(bytes.get(end), Some(b'+' | b'-')) {
                                end += 1;
                            }
                        } else {
                            break;
                        }
                    }
                    self.pos = end;
                    TokenKind::Number(&self.source[start..end])
                }
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let end = bytes[start..]
                        .iter()
                        .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                        .map_or(bytes.len(), |len| start + len);
                    self.pos = end;
                    TokenKind::Id(&self.source[start..end])
                }
                _ => {
                    // Every token and skip above ends on an ASCII byte, so
                    // `start` is a character boundary.
                    let other = self.source[start..].chars().next().unwrap_or('\u{fffd}');
                    return self.fail(QasmError::at(
                        self.line,
                        format!("unexpected character '{other}'"),
                    ));
                }
            };
            return Some(Token {
                kind,
                line: self.line,
            });
        }
        None
    }

    /// Ends the token stream at `error`.
    fn fail(&mut self, error: QasmError) -> Option<Token<'a>> {
        self.pos = self.source.len();
        self.error = Some(error);
        None
    }

    /// Lexes what is left of the source, discarding the tokens, and returns
    /// the first lexical error of the whole source, if it has one.
    pub(crate) fn finish(&mut self) -> Result<(), QasmError> {
        while self.next_token().is_some() {}
        self.error.take().map_or(Ok(()), Err)
    }
}

/// Whether `bytes[i]` exists and is a digit.
fn is_digit(bytes: &[u8], i: usize) -> bool {
    bytes.get(i).is_some_and(u8::is_ascii_digit)
}

/// Whether an exponent body (`7`, `+7`, `-7`) starts at `bytes[i]`.
fn exponent_follows(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i) {
        Some(b'+' | b'-') => is_digit(bytes, i + 1),
        Some(b) => b.is_ascii_digit(),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `source`, or its lexical error.
    fn lex(source: &str) -> Result<Vec<Token<'_>>, QasmError> {
        let mut lexer = Lexer::new(source);
        let tokens = std::iter::from_fn(|| lexer.next_token()).collect();
        lexer.finish().map(|()| tokens)
    }

    fn kinds(source: &str) -> Vec<TokenKind<'_>> {
        lex(source).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_statement_tokenizes() {
        assert_eq!(
            kinds("qreg q[3];"),
            vec![
                TokenKind::Id("qreg"),
                TokenKind::Id("q"),
                TokenKind::Symbol('['),
                TokenKind::Number("3"),
                TokenKind::Symbol(']'),
                TokenKind::Symbol(';'),
            ]
        );
    }

    #[test]
    fn numbers_keep_exact_lexemes() {
        assert_eq!(
            kinds("2.0 1e-7 .5 3.25E+2 0.0000000000000000125"),
            vec![
                TokenKind::Number("2.0"),
                TokenKind::Number("1e-7"),
                TokenKind::Number(".5"),
                TokenKind::Number("3.25E+2"),
                TokenKind::Number("0.0000000000000000125"),
            ]
        );
    }

    #[test]
    fn minus_before_digit_stays_a_symbol() {
        // `-0.5` must lex as unary minus + literal, so expression parsing
        // (not the lexer) owns negation.
        assert_eq!(
            kinds("-0.5"),
            vec![TokenKind::Symbol('-'), TokenKind::Number("0.5")]
        );
    }

    #[test]
    fn arrow_and_comments_and_strings() {
        assert_eq!(
            kinds("measure q -> c; // the readout\ninclude \"qelib1.inc\";"),
            vec![
                TokenKind::Id("measure"),
                TokenKind::Id("q"),
                TokenKind::Arrow,
                TokenKind::Id("c"),
                TokenKind::Symbol(';'),
                TokenKind::Id("include"),
                TokenKind::Str("qelib1.inc"),
                TokenKind::Symbol(';'),
            ]
        );
    }

    #[test]
    fn lines_are_tracked() {
        let tokens = lex("x q[0];\n\ny q[1];").unwrap();
        assert_eq!(tokens.first().unwrap().line, 1);
        assert_eq!(tokens.last().unwrap().line, 3);
    }

    #[test]
    fn bad_characters_are_positioned() {
        let err = lex("x q[0];\n#").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unexpected character"));
        assert!(lex("\"open").unwrap_err().message.contains("unterminated"));
        // A multi-byte character is named whole.
        assert_eq!(
            lex("x\n  é").unwrap_err().message,
            "unexpected character 'é'"
        );
        // Strings end at the line's end, and non-ASCII text inside is kept.
        assert_eq!(lex("\"a\nb\"").unwrap_err().line, 1);
        assert_eq!(kinds("\"é.inc\""), vec![TokenKind::Str("é.inc")]);
    }

    #[test]
    fn the_stream_ends_at_the_first_lexical_error() {
        let mut lexer = Lexer::new("h q; # x q; $");
        let tokens: Vec<_> = std::iter::from_fn(|| lexer.next_token()).collect();
        assert_eq!(tokens.len(), 3);
        assert_eq!(
            lexer.finish().unwrap_err().message,
            "unexpected character '#'"
        );
        // Unread text is lexed by `finish`, so a late error still surfaces.
        let mut lexer = Lexer::new("h q;\nx q;\n$");
        assert!(lexer.next_token().is_some());
        assert_eq!(lexer.finish().unwrap_err().line, 3);
    }

    #[test]
    fn identifier_e_is_not_an_exponent() {
        // `2e` (no digits after) lexes as number `2` then identifier `e`.
        assert_eq!(
            kinds("2e"),
            vec![TokenKind::Number("2"), TokenKind::Id("e")]
        );
    }
}
