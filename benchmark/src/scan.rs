//! A cheap field scanner for the server's JSONL replies.
//!
//! A `done` event carries every visited vertex (≈ 0.5 MB of digits per
//! job). Building a `serde_json::Value` tree out of that on the client
//! would make the *client* the dominant cost of the `wire` layer, so the
//! load generator reads the few scalars it needs with one forward byte
//! scan instead: no allocation, arrays skipped by bracket matching, and
//! an early exit as soon as the caller has what it wants (the vendored
//! serializer sorts keys, so `"event"` always comes first).

/// Walk the top-level `"key": value` pairs of one JSON object line, in
/// order, handing each key and the raw text of its value to `visit`.
/// `visit` returns `false` to stop early. Returns `None` when the line
/// is not a well-formed object up to the point the scan stopped.
pub fn scan_fields<'a>(
    line: &'a str,
    mut visit: impl FnMut(&'a str, &'a str) -> bool,
) -> Option<()> {
    let b = line.as_bytes();
    let mut i = skip_ws(b, 0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&b'}') {
        return Some(());
    }
    loop {
        let key_end = string_end(b, i)?;
        let key = &line[i + 1..key_end - 1];
        i = skip_ws(b, key_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(b, i + 1);
        let end = value_end(b, i)?;
        if !visit(key, &line[i..end]) {
            return Some(());
        }
        i = skip_ws(b, end);
        match b.get(i)? {
            b',' => i = skip_ws(b, i + 1),
            b'}' => return Some(()),
            _ => return None,
        }
    }
}

/// Raw text of the top-level field `key`, if present.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut found = None;
    scan_fields(line, |k, v| {
        if k == key {
            found = Some(v);
        }
        found.is_none()
    })?;
    found
}

/// Top-level field `key` as an unsigned integer.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        i += 1;
    }
    i
}

/// Index one past the closing quote of the string that opens at `i`.
fn string_end(b: &[u8], i: usize) -> Option<usize> {
    if b.get(i) != Some(&b'"') {
        return None;
    }
    let mut j = i + 1;
    loop {
        match b.get(j)? {
            b'\\' => j += 2,
            b'"' => return Some(j + 1),
            _ => j += 1,
        }
    }
}

/// Index one past the value that starts at `i`.
fn value_end(b: &[u8], i: usize) -> Option<usize> {
    match b.get(i)? {
        b'"' => string_end(b, i),
        b'[' | b'{' => {
            let mut depth = 0usize;
            let mut j = i;
            loop {
                match b.get(j)? {
                    b'"' => {
                        j = string_end(b, j)?;
                        continue;
                    }
                    b'[' | b'{' => depth += 1,
                    b']' | b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        _ => {
            let mut j = i;
            while !matches!(
                b.get(j),
                None | Some(b',' | b'}' | b' ' | b'\t' | b'\r' | b'\n')
            ) {
                j += 1;
            }
            (j > i).then_some(j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DONE: &str =
        r#"{"event":"done","finished":3,"lengths":[2,2,2],"steps":6,"visits":[0,1,1,2,5,9]}"#;

    #[test]
    fn reads_scalars_past_arrays() {
        assert_eq!(field(DONE, "event"), Some("\"done\""));
        assert_eq!(field_u64(DONE, "finished"), Some(3));
        assert_eq!(field_u64(DONE, "steps"), Some(6));
        assert_eq!(field(DONE, "visits"), Some("[0,1,1,2,5,9]"));
        assert_eq!(field(DONE, "missing"), None);
    }

    #[test]
    fn stops_early_when_asked() {
        let mut seen = Vec::new();
        scan_fields(DONE, |k, _| {
            seen.push(k);
            k != "finished"
        })
        .unwrap();
        assert_eq!(seen, ["event", "finished"]);
    }

    #[test]
    fn nested_values_and_tricky_strings_do_not_confuse_depth() {
        let line =
            r#" { "a" : {"steps":1,"x":["]","}"]} , "error":"say \"steps\":9 }", "steps" : 7 } "#;
        assert_eq!(field(line, "a"), Some(r#"{"steps":1,"x":["]","}"]}"#));
        assert_eq!(field(line, "error"), Some(r#""say \"steps\":9 }""#));
        assert_eq!(field_u64(line, "steps"), Some(7));
    }

    #[test]
    fn agrees_with_the_full_parser() {
        let v: serde_json::Value = serde_json::from_str(DONE).unwrap();
        for key in ["finished", "steps"] {
            assert_eq!(field_u64(DONE, key), v[key].as_u64());
        }
        assert_eq!(field(r#"{"ok":true,"job":12}"#, "ok"), Some("true"));
        assert_eq!(field_u64(r#"{"ok":true,"job":12}"#, "job"), Some(12));
        assert_eq!(scan_fields("{}", |_, _| true), Some(()));
    }

    #[test]
    fn malformed_lines_are_refused() {
        for bad in [
            "",
            "[1,2]",
            r#"{"a" 1}"#,
            r#"{"a":1,"#,
            r#"{"a":[1,2}"#,
            r#"{"a":"x"#,
            r#"{"a":}"#,
        ] {
            let r = scan_fields(bad, |_, _| true);
            assert_eq!(r, None, "{bad:?} should not scan");
        }
    }
}
