// Lexer corpus: char literals vs lifetime ticks.
//
// MUST_SURVIVE_* tokens are code; MUST_VANISH_* tokens sit inside
// literals/comments. See lexer_corpus.rs for the marker contract.

fn MUST_SURVIVE_lifetimes<'a>(x: &'a str) -> &'a str {
    // Lifetimes and loop labels keep the tick in code position.
    'outer: loop {
        break 'outer;
    }
    let _: &'static str = x;
    x
}

fn MUST_SURVIVE_chars() {
    let a = 'x';
    let b = '\'';
    let c = '\\';
    let d = '"';
    // Multi-byte scalars: closing quote is more than 2 bytes away.
    let e = 'é';
    let f = '→';
    let g = '𝄞';
    let h = '\u{1F600}';
    MUST_SURVIVE_after_chars(a, b, c, d, e, f, g, h);
}

fn MUST_SURVIVE_after_chars() {
    // A char literal containing a quote char must not open a string:
    // everything after `'"'` here is still code. MUST_VANISH_char_prose
    let q = '"';
    let s = "MUST_VANISH_in_string after the quote char";
    let MUST_SURVIVE_post_quote = (q, s);
    let _ = MUST_SURVIVE_post_quote;
}
