// Lexer corpus: raw strings and byte/byte-string literals.
//
// Tokens named MUST_SURVIVE_* sit in code position and must remain in
// the masked output; tokens named MUST_VANISH_* sit inside literals or
// comments and must be blanked. The corpus runner (lexer_corpus.rs)
// greps this file for both marker families.

fn MUST_SURVIVE_plain() {
    let a = r"MUST_VANISH_raw_plain";
    let b = r#"MUST_VANISH_raw_one_hash "quoted" inside"#;
    let c = r##"MUST_VANISH_raw_two_hash ends with "# not yet"##;
    let d = b"MUST_VANISH_byte_string";
    let e = br#"MUST_VANISH_byte_raw"#;
    let f = b'\'';
    let g = b'x';
    MUST_SURVIVE_after_literals(a, b, c, d, e, f, g);
}

fn MUST_SURVIVE_after_literals() {
    // A raw identifier is code, not a raw string.
    let r#type = 0;
    let MUST_SURVIVE_raw_ident = r#type;
    // `br` as identifier tail must not start a raw string: `abr` is code.
    let abr = MUST_SURVIVE_raw_ident;
    let _ = abr;
}
