//! A minimal Rust token-surface scanner.
//!
//! The lint rules need to know where *code* is — as opposed to comments,
//! string/char literals, and doc text — and what each comment says. A
//! full parse is unnecessary (and the build is hermetic, so there is no
//! `syn` to lean on): a single pass tracking the literal/comment state is
//! enough. [`scan`] returns the source with every comment body and
//! literal interior blanked to spaces (newlines preserved, so byte
//! offsets and line numbers still line up) plus the per-line comment
//! text for the SAFETY-comment rule.
//!
//! Handled: line comments, nested block comments, string literals with
//! escapes, raw strings `r#"…"#` (any hash depth, `b`/`br` prefixes),
//! char literals (including escapes), and the char-vs-lifetime
//! ambiguity (`'a'` is a literal, `'a` in `&'a str` is not).

/// Result of scanning one source file.
pub struct Scanned {
    /// The source with comments and literal interiors blanked to spaces.
    /// Same byte length and line structure as the input.
    pub code: String,
    /// For each 0-based line, the concatenation of all comment text
    /// appearing on that line (empty if none).
    pub comments: Vec<String>,
}

impl Scanned {
    /// 0-based line number of byte offset `at` in `code`.
    pub fn line_of(&self, at: usize) -> usize {
        self.code.as_bytes()[..at]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }
}

/// True if `b` can be part of an identifier.
pub(crate) fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Skips a balanced `open`…`close` group of masked code starting at `i`
/// (which must point at `open`); returns the offset just past the
/// closing delimiter (or `len` if unterminated).
pub(crate) fn skip_balanced(bytes: &[u8], mut i: usize, open: u8, close: u8) -> usize {
    let mut depth = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == open {
            depth += 1;
        } else if b == close {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    bytes.len()
}

pub(crate) fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Byte length of the UTF-8 sequence starting with leading byte `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Scans `src`, blanking comments and literal interiors.
pub fn scan(src: &str) -> Scanned {
    let bytes = src.as_bytes();
    let n = bytes.len();
    let mut code: Vec<u8> = Vec::with_capacity(n);
    let line_count = src.lines().count().max(1);
    let mut comments: Vec<String> = vec![String::new(); line_count + 1];
    let mut line = 0usize;

    // Pushes `b` through to the masked output, tracking line numbers.
    let push = |out: &mut Vec<u8>, b: u8, line: &mut usize| {
        if b == b'\n' {
            *line += 1;
            out.push(b'\n');
        } else {
            out.push(b);
        }
    };
    // Blanks `b`: newlines survive, everything else becomes a space.
    let blank = |out: &mut Vec<u8>, b: u8, line: &mut usize| {
        if b == b'\n' {
            *line += 1;
            out.push(b'\n');
        } else {
            out.push(b' ');
        }
    };

    let mut i = 0usize;
    while i < n {
        let b = bytes[i];
        // Line comment (also covers `///` and `//!` doc comments).
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'/' {
            let start = i;
            while i < n && bytes[i] != b'\n' {
                blank(&mut code, bytes[i], &mut line);
                i += 1;
            }
            if let Ok(text) = std::str::from_utf8(&bytes[start..i]) {
                comments[line].push_str(text);
                comments[line].push(' ');
            }
            continue;
        }
        // Block comment, possibly nested.
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
            let start = i;
            let mut depth = 0usize;
            let text_start_line = line;
            while i < n {
                if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                    depth += 1;
                    blank(&mut code, bytes[i], &mut line);
                    blank(&mut code, bytes[i + 1], &mut line);
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                    depth -= 1;
                    blank(&mut code, bytes[i], &mut line);
                    blank(&mut code, bytes[i + 1], &mut line);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut code, bytes[i], &mut line);
                    i += 1;
                }
            }
            if let Ok(text) = std::str::from_utf8(&bytes[start..i]) {
                for (k, part) in text.split('\n').enumerate() {
                    comments[text_start_line + k].push_str(part);
                    comments[text_start_line + k].push(' ');
                }
            }
            continue;
        }
        // Raw string (r"…", r#"…"#, br#"…"#), only when `r`/`b` starts a
        // token (not the tail of an identifier).
        if (b == b'r' || b == b'b') && (i == 0 || !is_ident(bytes[i - 1])) {
            let mut j = i;
            if bytes[j] == b'b' && j + 1 < n && bytes[j + 1] == b'r' {
                j += 1;
            }
            if bytes[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < n && bytes[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && bytes[k] == b'"' {
                    // Emit the prefix as code, blank the interior.
                    while i <= k {
                        push(&mut code, bytes[i], &mut line);
                        i += 1;
                    }
                    'raw: while i < n {
                        if bytes[i] == b'"' {
                            let mut h = 0usize;
                            while h < hashes && i + 1 + h < n && bytes[i + 1 + h] == b'#' {
                                h += 1;
                            }
                            if h == hashes {
                                for _ in 0..=hashes {
                                    push(&mut code, bytes[i], &mut line);
                                    i += 1;
                                }
                                break 'raw;
                            }
                        }
                        blank(&mut code, bytes[i], &mut line);
                        i += 1;
                    }
                    continue;
                }
            }
            // Plain byte string b"…" falls through to the `"` case below
            // on its quote; emit the prefix byte as code.
            push(&mut code, b, &mut line);
            i += 1;
            continue;
        }
        // String literal.
        if b == b'"' {
            push(&mut code, b, &mut line);
            i += 1;
            while i < n {
                if bytes[i] == b'\\' && i + 1 < n {
                    blank(&mut code, bytes[i], &mut line);
                    blank(&mut code, bytes[i + 1], &mut line);
                    i += 2;
                } else if bytes[i] == b'"' {
                    push(&mut code, bytes[i], &mut line);
                    i += 1;
                    break;
                } else {
                    blank(&mut code, bytes[i], &mut line);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            let next = bytes.get(i + 1).copied();
            let is_char = match next {
                Some(b'\\') => true,
                // Multi-byte scalar like 'é' or '→': the closing quote sits
                // after the whole UTF-8 sequence, not at i + 2.
                Some(c) if c >= 0x80 => bytes.get(i + 1 + utf8_len(c)).copied() == Some(b'\''),
                Some(c) if is_ident(c) => bytes.get(i + 2).copied() == Some(b'\''),
                Some(_) => bytes.get(i + 2).copied() == Some(b'\''),
                None => false,
            };
            if is_char {
                push(&mut code, b, &mut line);
                i += 1;
                while i < n {
                    if bytes[i] == b'\\' && i + 1 < n {
                        blank(&mut code, bytes[i], &mut line);
                        blank(&mut code, bytes[i + 1], &mut line);
                        i += 2;
                    } else if bytes[i] == b'\'' {
                        push(&mut code, bytes[i], &mut line);
                        i += 1;
                        break;
                    } else {
                        blank(&mut code, bytes[i], &mut line);
                        i += 1;
                    }
                }
            } else {
                // Lifetime: keep the quote, code continues normally.
                push(&mut code, b, &mut line);
                i += 1;
            }
            continue;
        }
        push(&mut code, b, &mut line);
        i += 1;
    }

    comments.truncate(line + 1);
    Scanned {
        code: String::from_utf8(code).unwrap_or_default(),
        comments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_blanked_but_captured() {
        let s = scan("let x = 1; // SAFETY: fine\nlet y = 2;\n");
        assert!(!s.code.contains("SAFETY"));
        assert!(s.comments[0].contains("SAFETY: fine"));
        assert!(s.comments[1].is_empty());
    }

    #[test]
    fn strings_are_blanked() {
        let s = scan(r#"let x = "call .unwrap() now"; x.len();"#);
        assert!(!s.code.contains(".unwrap()"));
        assert!(s.code.contains("x.len()"));
    }

    #[test]
    fn raw_strings_and_escapes_are_blanked() {
        let s = scan("let a = r#\"unsafe \"quoted\" here\"#; let b = \"esc \\\" unsafe\";");
        assert!(!s.code.contains("unsafe"), "{}", s.code);
        assert!(s.code.contains("let b"));
    }

    #[test]
    fn char_literals_do_not_eat_code() {
        let s = scan("let c = '\"'; let d: &'static str = \"x\"; let e = '\\n';");
        assert!(s.code.contains("&'static str"));
        assert!(s.code.contains("let e"));
    }

    #[test]
    fn multibyte_char_literals_are_not_lifetimes() {
        // 'é' is two UTF-8 bytes, '→' is three: the closing quote is not
        // at i + 2, and mistaking the literal for a lifetime would leave
        // the closing quote to poison the rest of the line.
        let s = scan("let a = 'é'; let b = '→'; let c = '𝄞'; keep_me();");
        assert!(s.code.contains("keep_me()"), "{}", s.code);
        assert!(!s.code.contains('é'), "{}", s.code);
        assert!(!s.code.contains('→'), "{}", s.code);
    }

    #[test]
    fn byte_literals_are_blanked() {
        let s = scan("let a = b'x'; let b = b\"unsafe bytes\"; let c = br#\"unsafe raw\"#; end();");
        assert!(!s.code.contains("unsafe"), "{}", s.code);
        assert!(s.code.contains("end()"), "{}", s.code);
    }

    #[test]
    fn raw_identifiers_survive() {
        let s = scan("let r#match = 1; r#match + 1;");
        assert!(s.code.contains("r#match"), "{}", s.code);
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner unsafe */ SAFETY: yes */ let x = 1;");
        assert!(!s.code.contains("unsafe"));
        assert!(s.code.contains("let x = 1;"));
        assert!(s.comments[0].contains("SAFETY: yes"));
    }

    #[test]
    fn line_structure_is_preserved() {
        let src = "a\n/* c1\nc2 */\nb\n";
        let s = scan(src);
        assert_eq!(s.code.matches('\n').count(), src.matches('\n').count());
        assert_eq!(s.line_of(s.code.find('b').unwrap()), 3);
    }
}
