//! Mini-C lexer: a byte scan whose tokens borrow the source.
//!
//! A name is a `&str` slice of the source and a number is parsed from
//! one, so tokens are `Copy` and lexing allocates only the token vector;
//! names are allocated later, and only into the syntax tree.

use std::fmt;

/// A compilation failure with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl CompileError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> CompileError {
        CompileError { line, message: message.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Token kinds. A name borrows its text from the source, so tokens are
/// `Copy` and lexing allocates nothing but the token vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'src> {
    // keywords
    Int,
    Const,
    If,
    Else,
    While,
    Do,
    For,
    Return,
    Break,
    Continue,
    // literals / names
    Ident(&'src str),
    Num(i64),
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Assign,
    // operators
    Plus,
    PlusEq,
    PlusPlus,
    Minus,
    MinusEq,
    MinusMinus,
    Star,
    StarEq,
    Slash,
    SlashEq,
    Percent,
    Amp,
    AmpAmp,
    Pipe,
    PipePipe,
    Caret,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    Not,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tok::Int => "int",
            Tok::Const => "const",
            Tok::If => "if",
            Tok::Else => "else",
            Tok::While => "while",
            Tok::Do => "do",
            Tok::For => "for",
            Tok::Return => "return",
            Tok::Break => "break",
            Tok::Continue => "continue",
            Tok::Ident(s) => return write!(f, "{s}"),
            Tok::Num(n) => return write!(f, "{n}"),
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Semi => ";",
            Tok::Comma => ",",
            Tok::Assign => "=",
            Tok::Plus => "+",
            Tok::PlusEq => "+=",
            Tok::PlusPlus => "++",
            Tok::Minus => "-",
            Tok::MinusEq => "-=",
            Tok::MinusMinus => "--",
            Tok::Star => "*",
            Tok::StarEq => "*=",
            Tok::Slash => "/",
            Tok::SlashEq => "/=",
            Tok::Percent => "%",
            Tok::Amp => "&",
            Tok::AmpAmp => "&&",
            Tok::Pipe => "|",
            Tok::PipePipe => "||",
            Tok::Caret => "^",
            Tok::Shl => "<<",
            Tok::Shr => ">>",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::EqEq => "==",
            Tok::Ne => "!=",
            Tok::Not => "!",
        };
        f.write_str(s)
    }
}

/// Tokenizes mini-C source; comments are `//` and `/* ... */`.
///
/// The scan runs over bytes: every token and comment delimiter is ASCII,
/// and no byte of a multi-byte UTF-8 character is, so a non-ASCII
/// character can only sit inside a comment or be an error, which reports
/// the whole character.
pub(crate) fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>, CompileError> {
    let bytes = src.as_bytes();
    // Mini-C spends well over two bytes per token (the suite 2.8 to 4.3),
    // so this capacity almost always holds every token.
    let mut out = Vec::with_capacity(src.len() / 2 + 1);
    let mut line = 1usize;
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        let (tok, len) = match (b, bytes.get(i + 1)) {
            (b'\n', _) => {
                line += 1;
                i += 1;
                continue;
            }
            (b' ' | b'\t' | b'\r', _) => {
                i += 1;
                continue;
            }
            (b'/', Some(b'/')) => {
                i += run(&bytes[i..], |&c| c != b'\n');
                continue;
            }
            (b'/', Some(b'*')) => {
                i += 2;
                loop {
                    match (bytes.get(i), bytes.get(i + 1)) {
                        (Some(b'*'), Some(b'/')) => {
                            i += 2;
                            break;
                        }
                        (Some(b'\n'), _) => {
                            line += 1;
                            i += 1;
                        }
                        (Some(_), _) => i += 1,
                        (None, _) => {
                            return Err(CompileError::new(line, "unterminated block comment"))
                        }
                    }
                }
                continue;
            }
            (b'(', _) => (Tok::LParen, 1),
            (b')', _) => (Tok::RParen, 1),
            (b'{', _) => (Tok::LBrace, 1),
            (b'}', _) => (Tok::RBrace, 1),
            (b'[', _) => (Tok::LBracket, 1),
            (b']', _) => (Tok::RBracket, 1),
            (b';', _) => (Tok::Semi, 1),
            (b',', _) => (Tok::Comma, 1),
            (b'+', Some(b'=')) => (Tok::PlusEq, 2),
            (b'+', Some(b'+')) => (Tok::PlusPlus, 2),
            (b'+', _) => (Tok::Plus, 1),
            (b'-', Some(b'=')) => (Tok::MinusEq, 2),
            (b'-', Some(b'-')) => (Tok::MinusMinus, 2),
            (b'-', _) => (Tok::Minus, 1),
            (b'*', Some(b'=')) => (Tok::StarEq, 2),
            (b'*', _) => (Tok::Star, 1),
            (b'/', Some(b'=')) => (Tok::SlashEq, 2),
            (b'/', _) => (Tok::Slash, 1),
            (b'%', _) => (Tok::Percent, 1),
            (b'^', _) => (Tok::Caret, 1),
            (b'&', Some(b'&')) => (Tok::AmpAmp, 2),
            (b'&', _) => (Tok::Amp, 1),
            (b'|', Some(b'|')) => (Tok::PipePipe, 2),
            (b'|', _) => (Tok::Pipe, 1),
            (b'<', Some(b'=')) => (Tok::Le, 2),
            (b'<', Some(b'<')) => (Tok::Shl, 2),
            (b'<', _) => (Tok::Lt, 1),
            (b'>', Some(b'=')) => (Tok::Ge, 2),
            (b'>', Some(b'>')) => (Tok::Shr, 2),
            (b'>', _) => (Tok::Gt, 1),
            (b'=', Some(b'=')) => (Tok::EqEq, 2),
            (b'=', _) => (Tok::Assign, 1),
            (b'!', Some(b'=')) => (Tok::Ne, 2),
            (b'!', _) => (Tok::Not, 1),
            (b'0'..=b'9', _) => {
                let text = &src[i..i + run(&bytes[i..], u8::is_ascii_digit)];
                let n: i64 = text
                    .parse()
                    .map_err(|_| CompileError::new(line, format!("bad integer {text}")))?;
                (Tok::Num(n), text.len())
            }
            (c, _) if c.is_ascii_alphabetic() || c == b'_' => {
                let word =
                    &src[i..i + run(&bytes[i..], |&c| c.is_ascii_alphanumeric() || c == b'_')];
                let tok = match word {
                    "int" => Tok::Int,
                    "const" => Tok::Const,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "do" => Tok::Do,
                    "for" => Tok::For,
                    "return" => Tok::Return,
                    "break" => Tok::Break,
                    "continue" => Tok::Continue,
                    _ => Tok::Ident(word),
                };
                (tok, word.len())
            }
            _ => {
                let other = src[i..].chars().next().expect("a token starts on a char boundary");
                return Err(CompileError::new(line, format!("unexpected character {other:?}")));
            }
        };
        out.push((tok, line));
        i += len;
    }
    Ok(out)
}

/// The length of the longest prefix of `bytes` whose bytes all satisfy
/// `keep`.
fn run(bytes: &[u8], keep: impl Fn(&u8) -> bool) -> usize {
    bytes.iter().position(|c| !keep(c)).unwrap_or(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("int x while whilex"),
            vec![Tok::Int, Tok::Ident("x"), Tok::While, Tok::Ident("whilex")]
        );
    }

    #[test]
    fn two_char_operators_win() {
        assert_eq!(
            toks("<= >= == != && || << >> < > = ! & |"),
            vec![
                Tok::Le,
                Tok::Ge,
                Tok::EqEq,
                Tok::Ne,
                Tok::AmpAmp,
                Tok::PipePipe,
                Tok::Shl,
                Tok::Shr,
                Tok::Lt,
                Tok::Gt,
                Tok::Assign,
                Tok::Not,
                Tok::Amp,
                Tok::Pipe
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let tokens = lex("a // one\n/* two\nthree */ b").unwrap();
        assert_eq!(tokens.len(), 2);
        assert_eq!(tokens[0].1, 1);
        assert_eq!(tokens[1].1, 3);
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("0 42 123456789"), vec![Tok::Num(0), Tok::Num(42), Tok::Num(123456789)]);
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("a $ b").unwrap_err();
        assert!(err.message.contains('$'));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn multi_byte_characters_in_comments_lex_cleanly() {
        let tokens = lex("a // é 日本\n/* ¿\n¡ ü */ b /* ∑ */ c\nd").unwrap();
        let lines: Vec<_> = tokens.iter().map(|&(t, line)| (t, line)).collect();
        assert_eq!(
            lines,
            vec![
                (Tok::Ident("a"), 1),
                (Tok::Ident("b"), 3),
                (Tok::Ident("c"), 3),
                (Tok::Ident("d"), 4)
            ]
        );
    }

    #[test]
    fn multi_byte_character_outside_a_comment_is_reported_whole() {
        assert_eq!(
            lex("int a;\n/* é */ int é;").unwrap_err(),
            CompileError::new(2, "unexpected character 'é'")
        );
        assert_eq!(lex("x\n\n日").unwrap_err(), CompileError::new(3, "unexpected character '日'"));
        assert_eq!(lex("/* é").unwrap_err(), CompileError::new(1, "unterminated block comment"));
    }

    #[test]
    fn integer_overflow_keeps_its_message() {
        assert_eq!(toks("9223372036854775807"), vec![Tok::Num(i64::MAX)]);
        assert_eq!(
            lex("x\n9223372036854775808").unwrap_err(),
            CompileError::new(2, "bad integer 9223372036854775808")
        );
        assert_eq!(
            lex("12345678901234567890").unwrap_err(),
            CompileError::new(1, "bad integer 12345678901234567890")
        );
    }

    #[test]
    fn keyword_prefixes_are_identifiers() {
        assert_eq!(
            toks("whilex int_ int if_ do2 continue_ while"),
            vec![
                Tok::Ident("whilex"),
                Tok::Ident("int_"),
                Tok::Int,
                Tok::Ident("if_"),
                Tok::Ident("do2"),
                Tok::Ident("continue_"),
                Tok::While
            ]
        );
    }
}
