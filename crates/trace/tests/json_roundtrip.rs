//! Property tests for the JSON string round trip: any string, with
//! multi-byte UTF-8 and every character the escaper rewrites, must come
//! back unchanged through `escape` and `parse`; and a string literal
//! spelled with any mix of raw characters and the JSON escape forms
//! (`\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`, `\uXXXX`) must parse
//! to the characters it spells.

use hlstb_trace::json::{escape, parse};
use proptest::prelude::*;

/// Characters drawn on purpose: ASCII, the escaped specials, control
/// characters, and one-, two-, three- and four-byte UTF-8 scalars.
const ALPHABET: &str = "aZ0 /\"\\\n\t\r\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}µé木€\u{fffd}😀\u{10ffff}";

/// A character from the alphabet (`pick` 0) or any scalar value
/// (`pick` 1), surrogates mapped to the replacement character.
fn char_of(pick: u32, code: u32) -> char {
    if pick == 0 {
        let n = ALPHABET.chars().count();
        ALPHABET
            .chars()
            .nth(code as usize % n)
            .expect("index below the count")
    } else {
        char::from_u32(code).unwrap_or('\u{fffd}')
    }
}

/// Spells `c` inside a JSON string literal in the form `form` selects,
/// falling back to a form that can carry it.
fn spell(c: char, form: u32, out: &mut String) {
    let short = match c {
        '"' => Some("\\\""),
        '\\' => Some("\\\\"),
        '/' => Some("\\/"),
        '\u{8}' => Some("\\b"),
        '\u{c}' => Some("\\f"),
        '\n' => Some("\\n"),
        '\r' => Some("\\r"),
        '\t' => Some("\\t"),
        _ => None,
    };
    let bmp = (c as u32) <= 0xffff;
    match (form % 3, short) {
        (0, Some(s)) => out.push_str(s),
        (1, _) if bmp => out.push_str(&format!("\\u{:04x}", c as u32)),
        _ if c == '"' || c == '\\' => out.push_str(short.expect("specials have a short form")),
        _ => out.push(c),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn escaped_strings_parse_back_unchanged(
        picks in proptest::collection::vec((0u32..2, 0u32..0x11_0000), 0..64)
    ) {
        let s: String = picks.iter().map(|&(p, c)| char_of(p, c)).collect();
        let v = parse(&escape(&s)).unwrap();
        prop_assert_eq!(v.as_str(), Some(s.as_str()));
    }

    #[test]
    fn every_escape_form_parses_to_its_character(
        picks in proptest::collection::vec((0u32..2, 0u32..0x11_0000, 0u32..3), 0..64)
    ) {
        let mut want = String::new();
        let mut literal = String::from("\"");
        for &(p, code, form) in &picks {
            let c = char_of(p, code);
            want.push(c);
            spell(c, form, &mut literal);
        }
        literal.push('"');
        let v = parse(&literal).unwrap();
        prop_assert_eq!(v.as_str(), Some(want.as_str()));
    }
}

#[test]
fn string_errors_keep_their_messages() {
    assert_eq!(parse("\"open").unwrap_err(), "unterminated string");
    assert_eq!(parse("\"µ木").unwrap_err(), "unterminated string");
    assert_eq!(parse("\"a\\u12").unwrap_err(), "truncated \\u escape");
    assert_eq!(parse("\"\\q\"").unwrap_err(), "bad escape Some(113)");
}
