//! Tokenizer for the SQL dialect understood by the front-end.
//!
//! The dialect is deliberately small — it covers the statements the paper's
//! user-facing examples need (Section 2.1): `CREATE TABLE`, `INSERT`,
//! `SELECT` with `WHERE` / `GROUP BY` / `ORDER BY [RANDOM()]` / `LIMIT`,
//! `DROP TABLE`, and scalar / aggregate / analytics function calls.
//! Keywords are case-insensitive; identifiers preserve their case, matching
//! how the storage catalog resolves names.
//!
//! The lexer makes **one pass over the statement's bytes** and lends its
//! tokens out of the input, one per call: an identifier is a `&str` slice of
//! the statement, a keyword is the `&'static str` of its canonical spelling
//! (matched case-insensitively, no upper-cased copy), a number is parsed
//! straight from its slice, and a string literal borrows its text unless it
//! contains the `''` escape (only then is an unescaped copy made). Nothing
//! is allocated per token, and the parser pulls tokens as it needs them, so
//! a literal `INSERT` of half a megabyte is never held as a token vector
//! either ([`tokenize`] builds one for callers that want it).
//!
//! Every multi-byte character is either inside a string literal or a comment
//! (skipped bytewise: `'` and `\n` never occur inside a UTF-8 sequence),
//! Unicode whitespace, or a lex error, so byte offsets and token boundaries
//! are exactly those of a `char`-by-`char` scan.

use std::borrow::Cow;

use crate::error::{Result, SqlError};

/// A single lexical token plus the byte offset where it starts (reported in
/// parse errors, so a mistake in a large statement can be located).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// The token's kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset of the first character in the original statement text.
    pub offset: usize,
}

/// The kinds of token the parser consumes. Text payloads borrow from the
/// statement being tokenized.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// A keyword such as `SELECT`, as its canonical upper-case spelling.
    Keyword(&'static str),
    /// An identifier (table, column or function name), case preserved.
    Identifier(&'a str),
    /// A single-quoted string literal with quotes stripped and `''`
    /// unescaped (borrowed unless it contained an escape).
    StringLiteral(Cow<'a, str>),
    /// An integer literal.
    Integer(i64),
    /// A floating-point literal.
    Float(f64),
    /// `(`
    LeftParen,
    /// `)`
    RightParen,
    /// `[`
    LeftBracket,
    /// `]`
    RightBracket,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `:` (used in sparse-vector literals `{index: value, ...}`)
    Colon,
    /// `{`
    LeftBrace,
    /// `}`
    RightBrace,
}

impl TokenKind<'_> {
    /// A short human-readable description used in parse errors.
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::Keyword(k) => format!("keyword {k}"),
            TokenKind::Identifier(id) => format!("identifier {id}"),
            TokenKind::StringLiteral(_) => "string literal".to_string(),
            TokenKind::Integer(v) => format!("integer {v}"),
            TokenKind::Float(v) => format!("float {v}"),
            TokenKind::LeftParen => "'('".to_string(),
            TokenKind::RightParen => "')'".to_string(),
            TokenKind::LeftBracket => "'['".to_string(),
            TokenKind::RightBracket => "']'".to_string(),
            TokenKind::Comma => "','".to_string(),
            TokenKind::Semicolon => "';'".to_string(),
            TokenKind::Star => "'*'".to_string(),
            TokenKind::Plus => "'+'".to_string(),
            TokenKind::Minus => "'-'".to_string(),
            TokenKind::Slash => "'/'".to_string(),
            TokenKind::Eq => "'='".to_string(),
            TokenKind::NotEq => "'<>'".to_string(),
            TokenKind::Lt => "'<'".to_string(),
            TokenKind::LtEq => "'<='".to_string(),
            TokenKind::Gt => "'>'".to_string(),
            TokenKind::GtEq => "'>='".to_string(),
            TokenKind::Colon => "':'".to_string(),
            TokenKind::LeftBrace => "'{'".to_string(),
            TokenKind::RightBrace => "'}'".to_string(),
        }
    }
}

/// The reserved words of the dialect. Anything else that looks like a word is
/// an identifier (so function names such as `SVMTrain` stay identifiers and
/// resolve through the function registry).
const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "AS", "CREATE", "TABLE", "DROP",
    "INSERT", "INTO", "VALUES", "AND", "OR", "NOT", "NULL", "ASC", "DESC", "TRUE", "FALSE",
    "ARRAY", "DISTINCT", "IS", "COPY", "TO", "SHUFFLE", "CLUSTER", "SEED", "SHOW", "TABLES",
    "DESCRIBE",
];

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Offset of the first byte at or after `from` that `keep` rejects (the
/// input's length if it keeps them all).
#[inline]
fn end_of_run(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| !keep(b))
        .map_or(bytes.len(), |p| from + p)
}

/// The lexer: a cursor over the statement's bytes that yields one borrowed
/// token per [`Lexer::next_token`] call. The parser pulls tokens from it as
/// it goes (and moves the cursor back to re-read a `VALUES` position it
/// could not take as a constant); [`tokenize`] drains it into a vector.
#[derive(Debug)]
pub(crate) struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    /// Byte offset of the next unread character (the statement's length once
    /// the input is exhausted).
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Move the cursor to byte `offset` — the start of a token this lexer
    /// yielded earlier — so the text from there is lexed again.
    pub(crate) fn rewind_to(&mut self, offset: usize) {
        debug_assert!(self.input.is_char_boundary(offset));
        self.pos = offset;
    }

    /// The next token, `None` at end of input. An error leaves the cursor
    /// where it was: asking again reports the same error.
    #[inline]
    pub(crate) fn next_token(&mut self) -> Result<Option<Token<'a>>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() {
            let start = i;
            let next = bytes.get(i + 1).copied();
            let (kind, end) = match bytes[i] {
                // ASCII whitespace as `char::is_whitespace` defines it.
                b' ' | b'\t'..=b'\r' => {
                    i += 1;
                    continue;
                }
                b'-' if next == Some(b'-') => {
                    // Line comment: skip to end of line.
                    i = end_of_run(bytes, i, |b| b != b'\n');
                    continue;
                }
                b'0'..=b'9' => lex_number(input, start)?,
                b'\'' => lex_string(input, start)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let end = end_of_run(bytes, start, is_ident_continue);
                    let word = &input[start..end];
                    let kind = match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word)) {
                        Some(keyword) => TokenKind::Keyword(keyword),
                        None => TokenKind::Identifier(word),
                    };
                    (kind, end)
                }
                b'<' if next == Some(b'>') => (TokenKind::NotEq, i + 2),
                b'!' if next == Some(b'=') => (TokenKind::NotEq, i + 2),
                b'<' if next == Some(b'=') => (TokenKind::LtEq, i + 2),
                b'>' if next == Some(b'=') => (TokenKind::GtEq, i + 2),
                b'(' => (TokenKind::LeftParen, i + 1),
                b')' => (TokenKind::RightParen, i + 1),
                b'[' => (TokenKind::LeftBracket, i + 1),
                b']' => (TokenKind::RightBracket, i + 1),
                b'{' => (TokenKind::LeftBrace, i + 1),
                b'}' => (TokenKind::RightBrace, i + 1),
                b',' => (TokenKind::Comma, i + 1),
                b';' => (TokenKind::Semicolon, i + 1),
                b'*' => (TokenKind::Star, i + 1),
                b'+' => (TokenKind::Plus, i + 1),
                b'-' => (TokenKind::Minus, i + 1),
                b'/' => (TokenKind::Slash, i + 1),
                b'=' => (TokenKind::Eq, i + 1),
                b'<' => (TokenKind::Lt, i + 1),
                b'>' => (TokenKind::Gt, i + 1),
                b':' => (TokenKind::Colon, i + 1),
                b if b.is_ascii() => return Err(unexpected_character(b as char, start)),
                _ => {
                    // Outside string literals and comments the only multi-byte
                    // characters the dialect accepts are Unicode whitespace.
                    let c = input[start..]
                        .chars()
                        .next()
                        .expect("a non-ASCII byte at a token start begins a character");
                    if c.is_whitespace() {
                        i += c.len_utf8();
                        continue;
                    }
                    return Err(unexpected_character(c, start));
                }
            };
            self.pos = end;
            return Ok(Some(Token {
                kind,
                offset: start,
            }));
        }
        self.pos = bytes.len();
        Ok(None)
    }
}

/// Tokenize a statement (or a script of `;`-separated statements). The
/// tokens borrow from `input`.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(input);
    let mut tokens = Vec::new();
    while let Some(token) = lexer.next_token()? {
        tokens.push(token);
    }
    Ok(tokens)
}

/// Lex the string literal whose opening quote is at `start`; returns the
/// unescaped text and the offset just past the closing quote.
fn lex_string(input: &str, start: usize) -> Result<(TokenKind<'_>, usize)> {
    let bytes = input.as_bytes();
    // Start of the text not yet copied into `unescaped`.
    let mut segment = start + 1;
    let mut unescaped: Option<String> = None;
    while let Some(p) = bytes[segment..].iter().position(|&b| b == b'\'') {
        let quote = segment + p;
        if bytes.get(quote + 1) == Some(&b'\'') {
            // '' is an escaped quote inside the literal: keep one of the two.
            unescaped
                .get_or_insert_with(String::new)
                .push_str(&input[segment..=quote]);
            segment = quote + 2;
            continue;
        }
        let rest = &input[segment..quote];
        let literal = match unescaped {
            Some(mut text) => {
                text.push_str(rest);
                Cow::Owned(text)
            }
            None => Cow::Borrowed(rest),
        };
        return Ok((TokenKind::StringLiteral(literal), quote + 1));
    }
    Err(SqlError::Lex {
        position: start,
        message: "unterminated string literal".into(),
    })
}

/// Lex the number starting at `start` (a digit): `digits[.digits][e[+-]digits]`,
/// parsed straight from its slice of the statement.
#[inline]
fn lex_number(input: &str, start: usize) -> Result<(TokenKind<'_>, usize)> {
    let bytes = input.as_bytes();
    let digits_end = |from: usize| end_of_run(bytes, from, |b| b.is_ascii_digit());
    let is_digit_at = |at: usize| bytes.get(at).is_some_and(u8::is_ascii_digit);

    let mut end = digits_end(start);
    let mut is_float = false;
    if bytes.get(end) == Some(&b'.') && is_digit_at(end + 1) {
        is_float = true;
        end = digits_end(end + 1);
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let mut exponent = end + 1;
        if matches!(bytes.get(exponent), Some(b'+' | b'-')) {
            exponent += 1;
        }
        if is_digit_at(exponent) {
            is_float = true;
            end = digits_end(exponent);
        }
    }
    let text = &input[start..end];
    let kind = if is_float {
        text.parse::<f64>()
            .map(TokenKind::Float)
            .map_err(|e| SqlError::Lex {
                position: start,
                message: format!("bad float: {e}"),
            })?
    } else {
        text.parse::<i64>()
            .map(TokenKind::Integer)
            .map_err(|e| SqlError::Lex {
                position: start,
                message: format!("bad integer: {e}"),
            })?
    };
    Ok((kind, end))
}

fn unexpected_character(c: char, position: usize) -> SqlError {
    SqlError::Lex {
        position,
        message: format!("unexpected character '{c}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind<'_>> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_are_case_insensitive_and_uppercased() {
        let toks = kinds("select From wHeRe");
        assert_eq!(
            toks,
            vec![
                TokenKind::Keyword("SELECT"),
                TokenKind::Keyword("FROM"),
                TokenKind::Keyword("WHERE"),
            ]
        );
    }

    #[test]
    fn identifiers_keep_case_and_are_not_keywords() {
        let toks = kinds("SVMTrain LabeledPapers vec_2");
        assert_eq!(
            toks,
            vec![
                TokenKind::Identifier("SVMTrain"),
                TokenKind::Identifier("LabeledPapers"),
                TokenKind::Identifier("vec_2"),
            ]
        );
    }

    #[test]
    fn string_literals_strip_quotes_and_unescape() {
        let toks = kinds("'myModel' 'it''s'");
        assert_eq!(
            toks,
            vec![
                TokenKind::StringLiteral("myModel".into()),
                TokenKind::StringLiteral("it's".into()),
            ]
        );
    }

    #[test]
    fn unterminated_string_is_a_lex_error() {
        let err = tokenize("SELECT 'oops").unwrap_err();
        assert!(matches!(err, SqlError::Lex { .. }));
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn numbers_split_into_integer_and_float() {
        let toks = kinds("42 3.5 1e-3 7.25e2 10");
        assert_eq!(
            toks,
            vec![
                TokenKind::Integer(42),
                TokenKind::Float(3.5),
                TokenKind::Float(1e-3),
                TokenKind::Float(7.25e2),
                TokenKind::Integer(10),
            ]
        );
    }

    #[test]
    fn symbols_and_two_char_operators() {
        let toks = kinds("( ) [ ] { } , ; * + - / = <> != < <= > >= :");
        assert_eq!(toks.len(), 20);
        assert_eq!(toks[13], TokenKind::NotEq);
        assert_eq!(toks[14], TokenKind::NotEq);
        assert_eq!(toks[16], TokenKind::LtEq);
        assert_eq!(toks[18], TokenKind::GtEq);
    }

    #[test]
    fn line_comments_are_skipped() {
        let toks = kinds("SELECT 1 -- the answer\n, 2");
        assert_eq!(
            toks,
            vec![
                TokenKind::Keyword("SELECT"),
                TokenKind::Integer(1),
                TokenKind::Comma,
                TokenKind::Integer(2),
            ]
        );
    }

    #[test]
    fn offsets_point_at_token_starts() {
        let toks = tokenize("SELECT  foo").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 8);
    }

    #[test]
    fn unexpected_character_reports_position() {
        let err = tokenize("SELECT @").unwrap_err();
        match err {
            SqlError::Lex { position, .. } => assert_eq!(position, 7),
            other => panic!("expected lex error, got {other:?}"),
        }
    }

    #[test]
    fn paper_training_query_tokenizes() {
        let toks = kinds("SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label');");
        assert_eq!(toks[0], TokenKind::Keyword("SELECT"));
        assert_eq!(toks[1], TokenKind::Identifier("SVMTrain"));
        assert_eq!(toks[2], TokenKind::LeftParen);
        assert_eq!(toks[3], TokenKind::StringLiteral("myModel".into()));
        assert_eq!(*toks.last().unwrap(), TokenKind::Semicolon);
    }
}
