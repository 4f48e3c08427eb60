//! Recursive-descent parser producing [`Statement`]s from token streams.
//!
//! The parser pulls borrowed tokens from the lexer one at a time — there is
//! one pass over the statement text and no token vector — and a
//! [`Statement`] owns its data: identifier and string text is copied out of
//! the statement exactly once, where the AST node that keeps it is built.
//! The whole text is still lexed before any verdict on its grammar is
//! returned, so a lex error anywhere in a statement outranks a parse error
//! before it, as if the tokens had been materialised first.
//!
//! ## The constant read of a `VALUES` position
//!
//! A literal `INSERT` is data, not a program, so a `VALUES` position whose
//! tokens *are* a constant is read directly into the storage [`Value`] it
//! denotes — [`Expr::Literal`] carries that value and the executor moves it
//! into the row. What qualifies, as the whole position (the next token is
//! `,` or `)`):
//!
//! - `[-]number`, a string, `NULL`, `TRUE`, `FALSE`;
//! - `ARRAY[[-]number, …]` (also empty) — a dense vector;
//! - `{int: [-]number, …}` (also empty) — a sparse vector.
//!
//! Anything else in that position — `1+2`, `ABS(-1)`, a parenthesis, `- - 5`,
//! a sparse index that is negative, fractional or past `u32::MAX` (the
//! evaluator rejects it), an `ARRAY` with one such element —
//! **rewinds** to the position's first token and takes the general expression
//! production below, which is the only definition of the grammar: the
//! constant read accepts a subset of it and yields, bit for bit, what
//! evaluating the general parse yields (`-x` negates the parsed magnitude, an
//! integer inside `ARRAY[…]` is negated *then* converted, so `-0` stays
//! `+0.0`). Errors, their messages and the nesting cap therefore come from
//! one place.

use bismarck_linalg::SparseVector;
use bismarck_storage::{DataType, Value};

use crate::ast::{
    BinaryOp, ColumnDef, CopyDirection, Expr, OrderKey, SelectItem, SelectStatement, Statement,
    TableStorage, UnaryOp,
};
use crate::error::{Result, SqlError};
use crate::eval::bool_value;
use crate::token::{Lexer, Token, TokenKind};

/// Parse a single statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut statements = parse_script(sql)?;
    match statements.len() {
        1 => Ok(statements.remove(0)),
        0 => Err(SqlError::Parse {
            position: 0,
            message: "empty statement".into(),
        }),
        n => Err(SqlError::Parse {
            position: 0,
            message: format!("expected a single statement, found {n}"),
        }),
    }
}

/// Parse a `;`-separated script into its statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut parser = Parser::new(sql);
    let parsed = parser.parse_statements();
    parser.finish_lexing()?;
    parsed
}

/// Hard cap on expression nesting. The parser is recursive-descent, so each
/// nesting level (parenthesis, unary minus, `NOT`, ...) consumes native
/// stack; past this depth parsing fails with a [`SqlError::Parse`] instead
/// of risking a stack overflow on adversarial input.
const MAX_EXPR_DEPTH: usize = 128;

/// A cursor over the token stream of one script: the lexer, the one token
/// of lookahead the grammar needs, and that token's index.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The token at the cursor; `None` at end of input — or at a lex error,
    /// which `lex_error` then holds and [`Parser::finish_lexing`] reports.
    current: Option<Token<'a>>,
    /// Index of `current` in the token stream ([`SqlError::Parse`]'s
    /// `position`).
    index: usize,
    lex_error: Option<SqlError>,
    /// Current expression-nesting depth, bounded by [`MAX_EXPR_DEPTH`].
    depth: usize,
    /// Length of the last constant `ARRAY[...]` read: the capacity the next
    /// one starts with (the rows of a table share a dimension).
    dense_len: usize,
}

impl<'a> Parser<'a> {
    fn new(sql: &'a str) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(sql),
            current: None,
            index: 0,
            lex_error: None,
            depth: 0,
            dense_len: 0,
        };
        parser.load();
        parser
    }

    /// Lex the token at the cursor into `current`.
    fn load(&mut self) {
        self.current = match self.lexer.next_token() {
            Ok(token) => token,
            Err(e) => {
                self.lex_error = Some(e);
                None
            }
        };
    }

    /// Step over the token at the cursor.
    fn bump(&mut self) {
        self.index += 1;
        self.load();
    }

    /// Lex whatever the grammar left unread, so the first lex error in the
    /// text is reported wherever parsing stopped.
    fn finish_lexing(mut self) -> Result<()> {
        if let Some(e) = self.lex_error {
            return Err(e);
        }
        while self.lexer.next_token()?.is_some() {}
        Ok(())
    }

    fn parse_statements(&mut self) -> Result<Vec<Statement>> {
        let mut statements = Vec::new();
        loop {
            // Skip empty statements (stray semicolons).
            while self.eat(&TokenKind::Semicolon) {}
            if self.at_end() {
                break;
            }
            statements.push(self.parse_statement()?);
            if !self.at_end() && !self.eat(&TokenKind::Semicolon) {
                return Err(self.error("expected ';' between statements"));
            }
        }
        Ok(statements)
    }

    fn at_end(&self) -> bool {
        self.current.is_none()
    }

    fn peek(&self) -> Option<&TokenKind<'a>> {
        self.current.as_ref().map(|t| &t.kind)
    }

    /// Take the token at the cursor (moved out, not copied) and step over it.
    fn advance(&mut self) -> Option<TokenKind<'a>> {
        let token = self.current.take()?;
        self.bump();
        Some(token.kind)
    }

    /// A parse error at the cursor. `position` is the token index; the
    /// message ends with the byte offset of that token in the statement text
    /// (its length at end of input), which is what locates the mistake in a
    /// statement of tens of thousands of tokens.
    fn error(&self, message: impl Into<String>) -> SqlError {
        let message = message.into();
        let message = match &self.current {
            Some(tok) => format!(
                "{message} (found {}) at byte {}",
                tok.kind.describe(),
                tok.offset
            ),
            None => format!(
                "{message} (found end of input) at byte {}",
                self.lexer.offset()
            ),
        };
        SqlError::Parse {
            position: self.index,
            message,
        }
    }

    /// Consume the next token if it equals `kind`.
    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        let found = self.peek() == Some(kind);
        if found {
            self.bump();
        }
        found
    }

    /// Consume the next token if it is the given keyword.
    fn eat_keyword(&mut self, keyword: &str) -> bool {
        let found = matches!(self.peek(), Some(TokenKind::Keyword(k)) if *k == keyword);
        if found {
            self.bump();
        }
        found
    }

    fn expect(&mut self, kind: &TokenKind<'_>) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {}", kind.describe())))
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<()> {
        if self.eat_keyword(keyword) {
            Ok(())
        } else {
            Err(self.error(format!("expected {keyword}")))
        }
    }

    /// The identifier at the cursor, not consumed.
    fn peek_identifier(&self) -> Result<&'a str> {
        match self.peek() {
            Some(TokenKind::Identifier(name)) => Ok(name),
            Some(other) => {
                Err(self.error(format!("expected identifier, found {}", other.describe())))
            }
            None => Err(self.error("expected identifier")),
        }
    }

    /// Consume an identifier.
    fn expect_identifier(&mut self) -> Result<String> {
        let name = self.peek_identifier()?.to_string();
        self.bump();
        Ok(name)
    }

    /// Consume a non-negative integer; `what` completes "expected ...".
    fn expect_count(&mut self, what: &str) -> Result<i64> {
        match self.peek() {
            Some(&TokenKind::Integer(n)) if n >= 0 => {
                self.bump();
                Ok(n)
            }
            _ => Err(self.error(format!("expected a non-negative integer after {what}"))),
        }
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(TokenKind::Keyword("CREATE")) => self.parse_create_table(),
            Some(TokenKind::Keyword("DROP")) => self.parse_drop_table(),
            Some(TokenKind::Keyword("INSERT")) => self.parse_insert(),
            Some(TokenKind::Keyword("SELECT")) => Ok(Statement::Select(self.parse_select()?)),
            Some(TokenKind::Keyword("COPY")) => self.parse_copy(),
            Some(TokenKind::Keyword("SHUFFLE")) => self.parse_shuffle(),
            Some(TokenKind::Keyword("CLUSTER")) => self.parse_cluster(),
            Some(TokenKind::Keyword("SHOW")) => {
                self.expect_keyword("SHOW")?;
                self.expect_keyword("TABLES")?;
                Ok(Statement::ShowTables)
            }
            Some(TokenKind::Keyword("DESCRIBE")) => {
                self.expect_keyword("DESCRIBE")?;
                let name = self.expect_identifier()?;
                Ok(Statement::Describe { name })
            }
            _ => Err(self.error("expected CREATE, DROP, INSERT, SELECT, COPY, SHUFFLE or CLUSTER")),
        }
    }

    fn parse_copy(&mut self) -> Result<Statement> {
        self.expect_keyword("COPY")?;
        let table = self.expect_identifier()?;
        let direction = if self.eat_keyword("FROM") {
            CopyDirection::FromFile
        } else if self.eat_keyword("TO") {
            CopyDirection::ToFile
        } else {
            return Err(self.error("expected FROM or TO after the table name in COPY"));
        };
        let Some(TokenKind::StringLiteral(path)) = self.peek() else {
            return Err(self.error("expected a quoted file path in COPY"));
        };
        let path = path.to_string();
        self.bump();
        Ok(Statement::Copy {
            table,
            direction,
            path,
        })
    }

    fn parse_shuffle(&mut self) -> Result<Statement> {
        self.expect_keyword("SHUFFLE")?;
        self.expect_keyword("TABLE")?;
        let table = self.expect_identifier()?;
        let seed = if self.eat_keyword("SEED") {
            Some(self.expect_count("SEED")? as u64)
        } else {
            None
        };
        Ok(Statement::Shuffle { table, seed })
    }

    fn parse_cluster(&mut self) -> Result<Statement> {
        self.expect_keyword("CLUSTER")?;
        self.expect_keyword("TABLE")?;
        let table = self.expect_identifier()?;
        self.expect_keyword("BY")?;
        let column = self.expect_identifier()?;
        let ascending = if self.eat_keyword("DESC") {
            false
        } else {
            self.eat_keyword("ASC");
            true
        };
        Ok(Statement::Cluster {
            table,
            column,
            ascending,
        })
    }

    /// Consume the next token if it is an identifier equal (ASCII
    /// case-insensitively) to `word`. `STORAGE`, `COLUMNAR` and `ROW` are
    /// soft keywords: they lex as identifiers so they stay usable as column
    /// and table names.
    fn eat_soft_keyword(&mut self, word: &str) -> bool {
        let found =
            matches!(self.peek(), Some(TokenKind::Identifier(id)) if id.eq_ignore_ascii_case(word));
        if found {
            self.bump();
        }
        found
    }

    /// Parse an optional `STORAGE = ROW | COLUMNAR` clause; absent means the
    /// row-store default.
    fn parse_storage_clause(&mut self) -> Result<TableStorage> {
        if !self.eat_soft_keyword("STORAGE") {
            return Ok(TableStorage::Row);
        }
        self.expect(&TokenKind::Eq)?;
        if self.eat_soft_keyword("COLUMNAR") {
            Ok(TableStorage::Columnar)
        } else if self.eat_soft_keyword("ROW") {
            Ok(TableStorage::Row)
        } else {
            Err(self.error("expected COLUMNAR or ROW after STORAGE ="))
        }
    }

    fn parse_create_table(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        let name = self.expect_identifier()?;
        let storage = self.parse_storage_clause()?;
        if self.eat_keyword("AS") {
            let query = self.parse_select()?;
            return Ok(Statement::CreateTableAs {
                name,
                query,
                storage,
            });
        }
        self.expect(&TokenKind::LeftParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.expect_identifier()?;
            let data_type = self.parse_data_type()?;
            columns.push(ColumnDef {
                name: col_name,
                data_type,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RightParen)?;
        let storage = if storage == TableStorage::Row {
            self.parse_storage_clause()?
        } else {
            storage
        };
        Ok(Statement::CreateTable {
            name,
            columns,
            storage,
        })
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        let data_type = match self.peek_identifier()?.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" => DataType::Int,
            "DOUBLE" | "FLOAT" | "FLOAT8" | "REAL" => DataType::Double,
            "TEXT" | "VARCHAR" | "STRING" => DataType::Text,
            "DENSE_VEC" | "VECTOR" => DataType::DenseVec,
            "SPARSE_VEC" => DataType::SparseVec,
            "SEQUENCE" => DataType::Sequence,
            other => return Err(self.error(format!("unknown column type '{other}'"))),
        };
        self.bump();
        Ok(data_type)
    }

    fn parse_drop_table(&mut self) -> Result<Statement> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        let name = self.expect_identifier()?;
        Ok(Statement::DropTable { name })
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.expect_identifier()?;
        let columns = if self.eat(&TokenKind::LeftParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_identifier()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RightParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LeftParen)?;
            // Rows of one statement have one arity (the executor checks it).
            let mut row = Vec::with_capacity(rows.last().map_or(0, Vec::len));
            loop {
                row.push(match self.parse_constant() {
                    Some(value) => Expr::Literal(value),
                    None => self.parse_expr()?,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RightParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    /// Read the `VALUES` position at the cursor as the constant it denotes
    /// (module docs say what qualifies). `None` rewinds the cursor to the
    /// position's first token: the caller takes the general production.
    fn parse_constant(&mut self) -> Option<Value> {
        let (start, index) = (self.current.as_ref()?.offset, self.index);
        let value = self.constant();
        // The constant must be the whole position: `1 + 2` starts with one.
        if value.is_some() && matches!(self.peek(), Some(TokenKind::Comma | TokenKind::RightParen))
        {
            return value;
        }
        // Lex the position again from its first token; an error the read
        // ran into will be met again there.
        self.lexer.rewind_to(start);
        self.lex_error = None;
        self.index = index;
        self.load();
        None
    }

    /// The constant starting at the cursor; on `None` the cursor is wherever
    /// the read gave up ([`Parser::parse_constant`] rewinds).
    fn constant(&mut self) -> Option<Value> {
        match self.peek()? {
            TokenKind::Minus => self.signed_number(),
            TokenKind::Keyword("ARRAY") => {
                self.bump();
                if !self.eat(&TokenKind::LeftBracket) {
                    return None;
                }
                let mut data = Vec::with_capacity(self.dense_len);
                if !self.eat(&TokenKind::RightBracket) {
                    loop {
                        data.push(self.signed_number()?.as_double()?);
                        match self.advance()? {
                            TokenKind::Comma => {}
                            TokenKind::RightBracket => break,
                            _ => return None,
                        }
                    }
                }
                // Exactly its size, as evaluating the general parse builds it.
                data.shrink_to_fit();
                self.dense_len = data.len();
                Some(Value::DenseVec(data))
            }
            TokenKind::LeftBrace => {
                self.bump();
                let mut entries = Vec::new();
                if !self.eat(&TokenKind::RightBrace) {
                    loop {
                        let TokenKind::Integer(index) = self.advance()? else {
                            return None;
                        };
                        if !self.eat(&TokenKind::Colon) {
                            return None;
                        }
                        let value = self.signed_number()?.as_double()?;
                        // An index past `u32::MAX` is the evaluator's to
                        // report, like a negative one.
                        entries.push((u32::try_from(index).ok()? as usize, value));
                        match self.advance()? {
                            TokenKind::Comma => {}
                            TokenKind::RightBrace => break,
                            _ => return None,
                        }
                    }
                }
                Some(Value::SparseVec(SparseVector::from_pairs(entries)))
            }
            _ => self.scalar_constant(),
        }
    }

    /// `[-]number` at the cursor, as evaluating it yields: the negation of
    /// the parsed magnitude, an integer staying an integer (so `-0` inside
    /// `ARRAY[…]` converts to `+0.0`, and `-0.0` stays `-0.0`).
    #[inline]
    fn signed_number(&mut self) -> Option<Value> {
        let negative = matches!(self.peek()?, TokenKind::Minus);
        if negative {
            self.bump();
        }
        let value = match *self.peek()? {
            TokenKind::Integer(v) => Value::Int(if negative { v.checked_neg()? } else { v }),
            TokenKind::Float(v) => Value::Double(if negative { -v } else { v }),
            _ => return None,
        };
        self.bump();
        Some(value)
    }

    /// The scalar literal token at the cursor — a number, a string, `NULL`,
    /// `TRUE`, `FALSE` — as the value it denotes, consumed; `None`, cursor
    /// unmoved, for any other token. The one mapping from literal tokens to
    /// values, shared by the constant read and [`Parser::parse_primary`].
    fn scalar_constant(&mut self) -> Option<Value> {
        let value = match self.peek()? {
            TokenKind::Integer(v) => Value::Int(*v),
            TokenKind::Float(v) => Value::Double(*v),
            TokenKind::StringLiteral(s) => Value::Text(s.to_string()),
            TokenKind::Keyword("NULL") => Value::Null,
            TokenKind::Keyword("TRUE") => bool_value(true),
            TokenKind::Keyword("FALSE") => bool_value(false),
            _ => return None,
        };
        self.bump();
        Some(value)
    }

    fn parse_select(&mut self) -> Result<SelectStatement> {
        self.expect_keyword("SELECT")?;
        let mut items = Vec::new();
        loop {
            if self.eat(&TokenKind::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.expect_identifier()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }

        let from = if self.eat_keyword("FROM") {
            Some(self.expect_identifier()?)
        } else {
            None
        };
        let filter = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let ascending = if self.eat_keyword("DESC") {
                    false
                } else {
                    // ASC is the default and may be written explicitly.
                    self.eat_keyword("ASC");
                    true
                };
                order_by.push(OrderKey { expr, ascending });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            Some(self.expect_count("LIMIT")? as usize)
        } else {
            None
        };

        Ok(SelectStatement {
            items,
            from,
            filter,
            group_by,
            order_by,
            limit,
        })
    }

    // Expression grammar, lowest precedence first:
    //   or_expr   := and_expr (OR and_expr)*
    //   and_expr  := not_expr (AND not_expr)*
    //   not_expr  := NOT not_expr | cmp_expr
    //   cmp_expr  := add_expr ((= | <> | < | <= | > | >=) add_expr)?
    //              | add_expr IS [NOT] NULL
    //   add_expr  := mul_expr ((+ | -) mul_expr)*
    //   mul_expr  := unary ((* | /) unary)*
    //   unary     := - unary | primary
    //   primary   := literal | column | function(args) | ARRAY[...] | {i: v, ...} | ( or_expr )
    fn parse_expr(&mut self) -> Result<Expr> {
        self.enter_nested()?;
        let result = self.parse_or();
        self.depth -= 1;
        result
    }

    /// Count one level of expression nesting, rejecting the statement once
    /// [`MAX_EXPR_DEPTH`] is exceeded. Called by every self-recursive parse
    /// production (`parse_expr` for parenthesized subexpressions and
    /// arguments, `parse_not` and `parse_unary` for prefix-operator chains).
    fn enter_nested(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(self.error("expression too deeply nested"));
        }
        Ok(())
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            self.enter_nested()?;
            let expr = self.parse_not();
            self.depth -= 1;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(expr?),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let op = match self.peek() {
            Some(TokenKind::Eq) => Some(BinaryOp::Eq),
            Some(TokenKind::NotEq) => Some(BinaryOp::NotEq),
            Some(TokenKind::Lt) => Some(BinaryOp::Lt),
            Some(TokenKind::LtEq) => Some(BinaryOp::LtEq),
            Some(TokenKind::Gt) => Some(BinaryOp::Gt),
            Some(TokenKind::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinaryOp::Add,
                Some(TokenKind::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinaryOp::Mul,
                Some(TokenKind::Slash) => BinaryOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            self.enter_nested()?;
            let expr = self.parse_unary();
            self.depth -= 1;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(expr?),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        if let Some(value) = self.scalar_constant() {
            return Ok(Expr::Literal(value));
        }
        match self.peek() {
            Some(TokenKind::Keyword("ARRAY")) => {
                self.bump();
                self.expect(&TokenKind::LeftBracket)?;
                let mut items = Vec::new();
                if self.peek() != Some(&TokenKind::RightBracket) {
                    loop {
                        items.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RightBracket)?;
                Ok(Expr::ArrayLiteral(items))
            }
            Some(TokenKind::LeftBrace) => {
                self.bump();
                let mut pairs = Vec::new();
                if self.peek() != Some(&TokenKind::RightBrace) {
                    loop {
                        let index = self.parse_expr()?;
                        self.expect(&TokenKind::Colon)?;
                        let value = self.parse_expr()?;
                        pairs.push((index, value));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RightBrace)?;
                Ok(Expr::SparseLiteral(pairs))
            }
            Some(TokenKind::LeftParen) => {
                self.bump();
                let expr = self.parse_expr()?;
                self.expect(&TokenKind::RightParen)?;
                Ok(expr)
            }
            Some(TokenKind::Identifier(name)) => {
                let name = name.to_string();
                self.bump();
                if self.eat(&TokenKind::LeftParen) {
                    let mut args = Vec::new();
                    if self.peek() != Some(&TokenKind::RightParen) {
                        loop {
                            if self.eat(&TokenKind::Star) {
                                args.push(Expr::Wildcard);
                            } else {
                                args.push(self.parse_expr()?);
                            }
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RightParen)?;
                    Ok(Expr::Function { name, args })
                } else {
                    Ok(Expr::Column(name))
                }
            }
            Some(other) => {
                Err(self.error(format!("unexpected {} in expression", other.describe())))
            }
            None => Err(self.error("unexpected end of input in expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_training_query() {
        let stmt = parse_statement("SELECT SVMTrain('myModel', 'LabeledPapers', 'vec', 'label');")
            .unwrap();
        let Statement::Select(select) = stmt else {
            panic!("expected SELECT")
        };
        assert_eq!(select.items.len(), 1);
        assert!(select.from.is_none());
        let SelectItem::Expr {
            expr: Expr::Function { name, args },
            ..
        } = &select.items[0]
        else {
            panic!("expected function item")
        };
        assert_eq!(name, "SVMTrain");
        assert_eq!(args.len(), 4);
    }

    #[test]
    fn parses_create_table_with_all_types() {
        let stmt = parse_statement(
            "CREATE TABLE LabeledPapers (id INT, vec DENSE_VEC, sv SPARSE_VEC, \
             label DOUBLE, title TEXT, seq SEQUENCE)",
        )
        .unwrap();
        let Statement::CreateTable {
            name,
            columns,
            storage,
        } = stmt
        else {
            panic!()
        };
        assert_eq!(name, "LabeledPapers");
        assert_eq!(storage, TableStorage::Row);
        assert_eq!(columns.len(), 6);
        assert_eq!(columns[1].data_type, DataType::DenseVec);
        assert_eq!(columns[2].data_type, DataType::SparseVec);
        assert_eq!(columns[5].data_type, DataType::Sequence);
    }

    #[test]
    fn rejects_unknown_column_type() {
        let err = parse_statement("CREATE TABLE t (x BLOB)").unwrap_err();
        assert!(err.to_string().contains("unknown column type"));
    }

    #[test]
    fn parses_insert_with_vector_literals() {
        let stmt = parse_statement(
            "INSERT INTO t (id, vec, label) VALUES (1, ARRAY[1.0, 2.0], 1.0), \
             (2, ARRAY[0.5, -0.25], -1.0)",
        )
        .unwrap();
        let Statement::Insert {
            table,
            columns,
            rows,
        } = stmt
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(columns.as_deref().unwrap().len(), 3);
        // The rows are constants: each position already is the value it denotes.
        let dense = |data: Vec<f64>| Expr::Literal(Value::DenseVec(data));
        assert_eq!(
            rows,
            vec![
                vec![
                    Expr::Literal(Value::Int(1)),
                    dense(vec![1.0, 2.0]),
                    Expr::Literal(Value::Double(1.0)),
                ],
                vec![
                    Expr::Literal(Value::Int(2)),
                    dense(vec![0.5, -0.25]),
                    Expr::Literal(Value::Double(-1.0)),
                ],
            ]
        );
    }

    #[test]
    fn parses_sparse_vector_literal() {
        let stmt = parse_statement("INSERT INTO t VALUES ({0: 1.5, 41000: 2.0})").unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(
            rows,
            vec![vec![Expr::Literal(Value::SparseVec(
                SparseVector::from_pairs(vec![(0, 1.5), (41000, 2.0)])
            ))]]
        );
    }

    #[test]
    fn parses_select_with_all_clauses() {
        let stmt = parse_statement(
            "SELECT label, COUNT(*) AS n FROM points WHERE label > 0 AND id <> 3 \
             GROUP BY label ORDER BY n DESC LIMIT 10",
        )
        .unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        assert_eq!(select.items.len(), 2);
        assert_eq!(select.from.as_deref(), Some("points"));
        assert!(select.filter.is_some());
        assert_eq!(select.group_by.len(), 1);
        assert_eq!(select.order_by.len(), 1);
        assert!(!select.order_by[0].ascending);
        assert_eq!(select.limit, Some(10));
    }

    #[test]
    fn parses_order_by_random() {
        let stmt = parse_statement("SELECT * FROM data ORDER BY RANDOM()").unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        assert!(matches!(
            &select.order_by[0].expr,
            Expr::Function { name, args } if name.eq_ignore_ascii_case("random") && args.is_empty()
        ));
    }

    #[test]
    fn operator_precedence_binds_mul_tighter_than_add_and_cmp() {
        let stmt = parse_statement("SELECT 1 + 2 * 3 < 10").unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &select.items[0] else {
            panic!()
        };
        // Shape: (1 + (2 * 3)) < 10
        let Expr::Binary {
            op: BinaryOp::Lt,
            left,
            ..
        } = expr
        else {
            panic!("expected <")
        };
        let Expr::Binary {
            op: BinaryOp::Add,
            right,
            ..
        } = left.as_ref()
        else {
            panic!("expected + on the left of <")
        };
        assert!(matches!(
            right.as_ref(),
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parses_is_null_and_is_not_null() {
        let stmt = parse_statement("SELECT * FROM t WHERE a IS NULL OR b IS NOT NULL").unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        let Some(Expr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        }) = select.filter
        else {
            panic!()
        };
        assert!(matches!(*left, Expr::IsNull { negated: false, .. }));
        assert!(matches!(*right, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn parses_script_with_multiple_statements() {
        let stmts = parse_script(
            "CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT COUNT(*) FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(stmts[0], Statement::CreateTable { .. }));
        assert!(matches!(stmts[1], Statement::Insert { .. }));
        assert!(matches!(stmts[2], Statement::Select(_)));
    }

    #[test]
    fn missing_semicolon_between_statements_is_an_error() {
        let err = parse_script("SELECT 1 SELECT 2").unwrap_err();
        assert!(err.to_string().contains("';'"));
    }

    #[test]
    fn single_statement_parse_rejects_scripts() {
        let err = parse_statement("SELECT 1; SELECT 2").unwrap_err();
        assert!(err.to_string().contains("single statement"));
    }

    #[test]
    fn drop_table_parses() {
        assert_eq!(
            parse_statement("DROP TABLE myModel").unwrap(),
            Statement::DropTable {
                name: "myModel".into()
            }
        );
    }

    #[test]
    fn count_star_is_a_wildcard_argument() {
        let stmt = parse_statement("SELECT COUNT(*) FROM t").unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        let SelectItem::Expr {
            expr: Expr::Function { args, .. },
            ..
        } = &select.items[0]
        else {
            panic!()
        };
        assert_eq!(args, &vec![Expr::Wildcard]);
    }

    #[test]
    fn reports_error_position_for_garbage() {
        let err = parse_statement("SELECT FROM").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
    }

    #[test]
    fn parse_errors_locate_the_offending_byte_in_a_large_statement() {
        let mut sql = String::from("INSERT INTO t VALUES ");
        let mut planted = 0;
        for r in 0..10_000 {
            if r > 0 {
                sql.push_str(", ");
            }
            sql.push_str(&format!("({r}, ARRAY[0.5, -1.25], 'row {r}')"));
            if r == 7_000 {
                planted = sql.len();
                sql.push(')');
            }
        }
        let SqlError::Parse { position, message } = parse_statement(&sql).unwrap_err() else {
            panic!("expected a parse error")
        };
        assert!(
            message.ends_with(&format!("(found ')') at byte {planted}")),
            "{message}"
        );
        assert_eq!(sql.as_bytes()[planted], b')');
        // `position` keeps its meaning: the index of that token.
        assert_eq!(
            position,
            crate::token::tokenize(&sql[..planted]).unwrap().len()
        );

        // At end of input the byte is the statement's length.
        let sql = "INSERT INTO t VALUES (1, ARRAY[2.0]";
        let err = parse_statement(sql).unwrap_err();
        assert!(
            err.to_string()
                .ends_with(&format!("(found end of input) at byte {}", sql.len())),
            "{err}"
        );
    }

    #[test]
    fn a_lex_error_anywhere_outranks_a_parse_error_before_it() {
        // The parser pulls tokens as it goes, but the verdict is the one a
        // tokenize-first pipeline gives: the text is lexed to its end.
        let err = parse_statement("SELECT FROM WHERE 1 @").unwrap_err();
        assert_eq!(
            err,
            SqlError::Lex {
                position: 20,
                message: "unexpected character '@'".into()
            }
        );
        // Also when the lexer meets it while a constant read is looking
        // ahead, and when the statement before it parsed.
        for sql in [
            "INSERT INTO t VALUES (ARRAY[1.0, 2.0 @",
            "INSERT INTO t VALUES (1); SELECT 'open",
        ] {
            let err = parse_script(sql).unwrap_err();
            assert!(matches!(err, SqlError::Lex { .. }), "{sql}: {err:?}");
        }
    }

    #[test]
    fn constant_positions_fold_and_everything_else_takes_the_grammar() {
        let stmt = parse_statement(
            "INSERT INTO t VALUES (-1, - 2.5, 'it''s', NULL, true, ARRAY[], {}, ARRAY[-0, -0.0]), \
             (1+2, ABS(-1), (4) * 1, - - 5, 1 IS NULL, ARRAY[1, 1+1], {-1: 2.0}, ARRAY[(1)])",
        )
        .unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        let dense = |data: Vec<f64>| Value::DenseVec(data);
        let Expr::Literal(Value::DenseVec(zeros)) = &rows[0][7] else {
            panic!("{:?}", rows[0][7])
        };
        // An integer is negated, then converted: `-0` is `+0.0`.
        assert_eq!(
            zeros
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            vec![0.0f64.to_bits(), (-0.0f64).to_bits()]
        );
        assert_eq!(
            rows[0][..7],
            [
                Value::Int(-1),
                Value::Double(-2.5),
                Value::Text("it's".into()),
                Value::Null,
                Value::Int(1),
                dense(vec![]),
                Value::SparseVec(SparseVector::from_pairs(vec![])),
            ]
            .map(Expr::Literal)
        );
        assert!(
            rows[1].iter().all(|expr| !matches!(expr, Expr::Literal(_))),
            "{:?}",
            rows[1]
        );
        // The nesting cap binds inside a vector literal as everywhere else.
        let deep = format!(
            "INSERT INTO t VALUES (ARRAY[{}1{}])",
            "(".repeat(500),
            ")".repeat(500)
        );
        let err = parse_statement(&deep).unwrap_err();
        assert!(err.to_string().contains("too deeply nested"), "{err}");
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(parse_statement("   ").is_err());
        assert!(parse_script("  ;;  ").unwrap().is_empty());
    }

    #[test]
    fn copy_shuffle_and_cluster_statements_parse() {
        assert_eq!(
            parse_statement("COPY forest FROM '/tmp/forest.csv'").unwrap(),
            Statement::Copy {
                table: "forest".into(),
                direction: CopyDirection::FromFile,
                path: "/tmp/forest.csv".into()
            }
        );
        assert_eq!(
            parse_statement("COPY myModel TO 'model.csv'").unwrap(),
            Statement::Copy {
                table: "myModel".into(),
                direction: CopyDirection::ToFile,
                path: "model.csv".into()
            }
        );
        assert_eq!(
            parse_statement("SHUFFLE TABLE forest SEED 42").unwrap(),
            Statement::Shuffle {
                table: "forest".into(),
                seed: Some(42)
            }
        );
        assert_eq!(
            parse_statement("SHUFFLE TABLE forest").unwrap(),
            Statement::Shuffle {
                table: "forest".into(),
                seed: None
            }
        );
        assert_eq!(
            parse_statement("CLUSTER TABLE forest BY label DESC").unwrap(),
            Statement::Cluster {
                table: "forest".into(),
                column: "label".into(),
                ascending: false
            }
        );
        assert_eq!(
            parse_statement("CLUSTER TABLE forest BY label").unwrap(),
            Statement::Cluster {
                table: "forest".into(),
                column: "label".into(),
                ascending: true
            }
        );
    }

    #[test]
    fn create_table_as_select_parses() {
        let stmt = parse_statement("CREATE TABLE shuffled AS SELECT * FROM data ORDER BY RANDOM()")
            .unwrap();
        let Statement::CreateTableAs {
            name,
            query,
            storage,
        } = stmt
        else {
            panic!("expected CTAS")
        };
        assert_eq!(name, "shuffled");
        assert_eq!(storage, TableStorage::Row);
        assert_eq!(query.from.as_deref(), Some("data"));
        assert_eq!(query.order_by.len(), 1);
    }

    #[test]
    fn storage_clause_parses_in_both_create_forms() {
        let stmt = parse_statement("CREATE TABLE t (x INT) STORAGE = COLUMNAR").unwrap();
        assert!(matches!(
            stmt,
            Statement::CreateTable {
                storage: TableStorage::Columnar,
                ..
            }
        ));
        let stmt = parse_statement("CREATE TABLE t (x INT) storage = row").unwrap();
        assert!(matches!(
            stmt,
            Statement::CreateTable {
                storage: TableStorage::Row,
                ..
            }
        ));
        let stmt =
            parse_statement("CREATE TABLE t STORAGE = COLUMNAR AS SELECT * FROM data").unwrap();
        assert!(matches!(
            stmt,
            Statement::CreateTableAs {
                storage: TableStorage::Columnar,
                ..
            }
        ));
        // STORAGE stays usable as an ordinary identifier.
        let stmt = parse_statement("CREATE TABLE t (storage INT, row TEXT)").unwrap();
        let Statement::CreateTable { columns, .. } = stmt else {
            panic!()
        };
        assert_eq!(columns[0].name, "storage");
        assert_eq!(columns[1].name, "row");

        let err = parse_statement("CREATE TABLE t (x INT) STORAGE = HEAP").unwrap_err();
        assert!(err.to_string().contains("COLUMNAR or ROW"), "{err}");
    }

    #[test]
    fn show_tables_and_describe_parse() {
        assert_eq!(
            parse_statement("SHOW TABLES").unwrap(),
            Statement::ShowTables
        );
        assert_eq!(
            parse_statement("DESCRIBE forest").unwrap(),
            Statement::Describe {
                name: "forest".into()
            }
        );
        assert!(parse_statement("SHOW forest").is_err());
        assert!(parse_statement("DESCRIBE").is_err());
    }

    #[test]
    fn copy_without_direction_or_path_is_rejected() {
        assert!(parse_statement("COPY forest").is_err());
        assert!(parse_statement("COPY forest FROM 42").is_err());
        assert!(parse_statement("SHUFFLE forest").is_err());
        assert!(parse_statement("CLUSTER TABLE forest").is_err());
    }

    #[test]
    fn negative_numbers_and_not_parse() {
        let stmt = parse_statement("SELECT -3.5, NOT TRUE").unwrap();
        let Statement::Select(select) = stmt else {
            panic!()
        };
        assert!(matches!(
            select.items[0],
            SelectItem::Expr {
                expr: Expr::Unary {
                    op: UnaryOp::Neg,
                    ..
                },
                ..
            }
        ));
        assert!(matches!(
            select.items[1],
            SelectItem::Expr {
                expr: Expr::Unary {
                    op: UnaryOp::Not,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn deeply_nested_expression_is_rejected_not_a_stack_overflow() {
        let sql = format!("SELECT {}1{}", "(".repeat(500), ")".repeat(500));
        let err = parse_statement(&sql).unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }), "got: {err:?}");
        assert!(err.to_string().contains("too deeply nested"), "got: {err}");

        // Prefix-operator chains recurse through their own productions and
        // hit the same limit.
        let err = parse_statement(&format!("SELECT {}1", "NOT ".repeat(500))).unwrap_err();
        assert!(err.to_string().contains("too deeply nested"), "got: {err}");
        // Spaced out so the token stream is 500 unary minuses, not a `--`
        // line comment.
        let err = parse_statement(&format!("SELECT {}1", "- ".repeat(500))).unwrap_err();
        assert!(err.to_string().contains("too deeply nested"), "got: {err}");

        // Reasonable nesting still parses, and the depth counter unwinds so
        // later statements in the same script are unaffected.
        let ok = format!(
            "SELECT {}1{}; SELECT {}2{}",
            "(".repeat(40),
            ")".repeat(40),
            "(".repeat(40),
            ")".repeat(40)
        );
        assert_eq!(parse_script(&ok).unwrap().len(), 2);
    }
}
