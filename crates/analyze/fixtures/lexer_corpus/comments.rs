// Lexer corpus: comments. MUST_VANISH_* tokens below live only inside
// comment bodies and string escapes; MUST_SURVIVE_* are code.

// MUST_VANISH_line_comment
/// MUST_VANISH_doc_comment
//! is not valid here but the scanner treats it as a line comment anyway

/* MUST_VANISH_block /* MUST_VANISH_nested_block */ still in the outer */

fn MUST_SURVIVE_fn_between_comments() {
    let s = "escaped quote \" then MUST_VANISH_in_string";
    let t = "backslash at end \\";
    MUST_SURVIVE_call(s, t); // trailing MUST_VANISH_trailing
}

/* unterminated-looking content with a lone " quote */
fn MUST_SURVIVE_last() {}
