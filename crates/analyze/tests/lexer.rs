//! Lexer edge cases: everything a lint could be fooled by must lex
//! correctly — comments, strings, raw strings, char-vs-lifetime, floats.

use scda_analyze::lexer::{lex, Tok};

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter_map(|t| match t.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        })
        .collect()
}

#[test]
fn line_comments_are_stripped() {
    let toks = idents("let x = 1; // HashMap in a comment\nlet y;");
    assert_eq!(toks, ["let", "x", "let", "y"]);
}

#[test]
fn nested_block_comments_are_stripped() {
    let toks = idents("a /* outer /* inner HashMap */ still comment */ b");
    assert_eq!(toks, ["a", "b"]);
}

#[test]
fn string_contents_are_not_code() {
    // `HashMap` and `.unwrap()` inside a string must not produce idents.
    let toks = idents(r#"let s = "HashMap::new().unwrap()"; done();"#);
    assert_eq!(toks, ["let", "s", "done"]);
}

#[test]
fn escaped_quotes_stay_inside_the_string() {
    let lexed = lex(r#"let s = "say \"hi\" now"; x"#);
    let strs: Vec<_> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(strs, [r#"say \"hi\" now"#]);
    assert!(idents(r#"let s = "say \"hi\" now"; x"#).contains(&"x".to_string()));
}

#[test]
fn raw_strings_with_hashes() {
    // A raw string containing a quote-hash that is NOT the terminator,
    // plus `//` that must not start a comment.
    let src = r###"let s = r##"contains "# and // not a comment"##; tail"###;
    let lexed = lex(src);
    let strs: Vec<_> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(strs, [r##"contains "# and // not a comment"##]);
    assert!(idents(src).contains(&"tail".to_string()));
}

#[test]
fn byte_and_raw_byte_strings() {
    let toks = idents(r#"let a = b"bytes"; let b2 = br"raw"; end"#);
    assert_eq!(toks, ["let", "a", "let", "b2", "end"]);
}

#[test]
fn char_literals_vs_lifetimes() {
    let lexed = lex(r"fn f<'a>(x: &'a str) { let c = 'x'; let n = '\n'; }");
    let lifetimes: Vec<_> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Lifetime(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(lifetimes, ["a", "a"]);
    let chars = lexed
        .tokens
        .iter()
        .filter(|t| matches!(t.tok, Tok::Char))
        .count();
    assert_eq!(chars, 2);
}

#[test]
fn raw_identifiers_are_idents_not_strings() {
    assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
}

#[test]
fn float_vs_int_classification() {
    let lexed = lex("let a = 1; let b = 1.0; let c = 1e-9; let d = 1f64; let e = 2.5f32; let g = 0xFF; let h = 1.max(2); let i = 0..9;");
    let floats: Vec<_> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Float(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(floats, ["1.0", "1e-9", "1f64", "2.5f32"]);
    let ints: Vec<_> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Int(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(ints, ["1", "0xFF", "1", "2", "0", "9"]);
}

#[test]
fn doc_comments_are_kept_plain_comments_are_not() {
    let lexed = lex("/// outer doc\n//! inner doc\n//// not doc\n// plain\n/** block doc */\n/*** not doc */\nfn f() {}");
    let docs: Vec<_> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Doc(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(docs, ["outer doc", "inner doc", "block doc"]);
}

#[test]
fn multichar_operators_are_single_tokens() {
    let lexed = lex("a == b != c :: d -> e ..= f << g");
    let ops: Vec<_> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Op(s) => Some(*s),
            _ => None,
        })
        .collect();
    assert_eq!(ops, ["==", "!=", "::", "->", "..=", "<<"]);
}

#[test]
fn line_numbers_survive_multiline_constructs() {
    let src = "line1();\n/* spans\ntwo lines */\nline4();\nlet s = \"multi\nline\";\nline7();";
    let lexed = lex(src);
    let find = |name: &str| {
        lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
            .map(|t| t.line)
    };
    assert_eq!(find("line1"), Some(1));
    assert_eq!(find("line4"), Some(4));
    assert_eq!(find("line7"), Some(7));
}

#[test]
fn allow_annotations_are_parsed() {
    let src = "\
let a = 1; // scda-analyze: allow(no-unwrap-hot-path, profiling only)
// scda-analyze: allow(no-float-eq, )
// scda-analyze: allow(doc-units)
// scda-analyze: bogus directive
";
    let lexed = lex(src);
    assert_eq!(lexed.allows.len(), 3);
    assert_eq!(lexed.allows[0].lint, "no-unwrap-hot-path");
    assert_eq!(lexed.allows[0].reason, "profiling only");
    assert_eq!(lexed.allows[0].line, 1);
    // Empty reason forms parse (the driver rejects them with a finding).
    assert_eq!(lexed.allows[1].reason, "");
    assert_eq!(lexed.allows[2].reason, "");
    assert_eq!(lexed.malformed_allows, [4]);
}

#[test]
fn allow_reason_may_contain_parens() {
    let lexed = lex("// scda-analyze: allow(no-unwrap-hot-path, gated (see obs) and unread)\n");
    assert_eq!(lexed.allows[0].reason, "gated (see obs) and unread");
}

#[test]
fn unterminated_string_does_not_panic() {
    let lexed = lex("let s = \"never closed");
    assert!(lexed
        .tokens
        .iter()
        .any(|t| matches!(&t.tok, Tok::Str(s) if s == "never closed")));
}
