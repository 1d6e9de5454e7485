//! Hand-rolled flat-JSON encoding and parsing.
//!
//! The workspace deliberately has no `serde_json` (it builds offline
//! without crates.io), so every machine-readable surface — the
//! [`crate::telemetry`] JSONL trace stream, the bench `BENCH_*.json`
//! files, and the verification server's newline-delimited protocol —
//! shares this one module instead of growing private dialects.
//!
//! The supported shape is a single flat object whose values are numbers,
//! strings, or arrays of numbers:
//!
//! ```text
//! {"event": "attack", "evals": 42, "best_objective": "-inf", "layer_seconds": [0.5, 0.25]}
//! ```
//!
//! Non-finite floats have no JSON spelling, so they are encoded as the
//! strings `"inf"`, `"-inf"`, and `"nan"` and decoded back by
//! [`Fields::f64_field`]. [`ObjectBuilder`] composes objects in insertion
//! order; [`parse_flat_object`] reads them back.

/// Encodes an `f64` as a JSON token, mapping non-finite values to the
/// strings `"inf"`, `"-inf"`, and `"nan"` (plain JSON has no spelling
/// for them).
pub fn json_f64(v: f64) -> String {
    if v.is_nan() {
        "\"nan\"".to_string()
    } else if v == f64::INFINITY {
        "\"inf\"".to_string()
    } else if v == f64::NEG_INFINITY {
        "\"-inf\"".to_string()
    } else {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{v:?}")
    }
}

/// Escapes a string for a JSON literal (quotes, backslashes, control
/// characters).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Incremental builder for one flat JSON object, preserving insertion
/// order (the first field is conventionally the discriminator, e.g.
/// `"event"` or `"response"`).
#[derive(Debug, Clone)]
pub struct ObjectBuilder {
    out: String,
    empty: bool,
}

impl ObjectBuilder {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjectBuilder {
            out: "{".to_string(),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push_str(", ");
        }
        self.empty = false;
        self.out.push_str(&json_str(key));
        self.out.push_str(": ");
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push_str(&json_str(value));
        self
    }

    /// Appends a float field (non-finite values encode as strings).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.out.push_str(&json_f64(value));
        self
    }

    /// Appends an unsigned integer field (serialized without a decimal
    /// point).
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Appends an array-of-numbers field.
    pub fn arr(mut self, key: &str, values: &[f64]) -> Self {
        self.key(key);
        let items: Vec<String> = values.iter().map(|v| json_f64(*v)).collect();
        self.out.push('[');
        self.out.push_str(&items.join(", "));
        self.out.push(']');
        self
    }

    /// Finishes the object, returning the JSON text (no trailing
    /// newline).
    pub fn build(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Default for ObjectBuilder {
    fn default() -> Self {
        ObjectBuilder::new()
    }
}

/// A parsed JSON scalar/array value from a flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
    /// An array of numbers (non-finite encoded items already decoded).
    Arr(Vec<f64>),
}

/// The parsed `key: value` pairs of one flat object, in document order.
#[derive(Debug, Clone)]
pub struct Fields(pub(crate) Vec<(String, JsonValue)>);

impl Fields {
    /// The value of `key`, if present.
    pub fn opt(&self, key: &str) -> Option<&JsonValue> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of a required `key`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing field.
    pub fn get(&self, key: &str) -> Result<&JsonValue, String> {
        self.opt(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// Returns a message if the field is missing or not a string.
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            JsonValue::Str(s) => Ok(s.clone()),
            other => Err(format!("field {key:?} is not a string: {other:?}")),
        }
    }

    /// An optional string field (`None` when absent).
    ///
    /// # Errors
    ///
    /// Returns a message if the field is present but not a string.
    pub fn opt_str(&self, key: &str) -> Result<Option<String>, String> {
        match self.opt(key) {
            None => Ok(None),
            Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
            Some(other) => Err(format!("field {key:?} is not a string: {other:?}")),
        }
    }

    /// A required numeric field; the strings `"inf"`, `"-inf"` and
    /// `"nan"` decode to the corresponding non-finite floats.
    ///
    /// # Errors
    ///
    /// Returns a message if the field is missing or not a number.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            JsonValue::Num(v) => Ok(*v),
            JsonValue::Str(s) => decode_nonfinite(s)
                .ok_or_else(|| format!("field {key:?} is not a number: {s:?}")),
            other => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    /// An optional numeric field (`None` when absent).
    ///
    /// # Errors
    ///
    /// Returns a message if the field is present but not a number.
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        if self.opt(key).is_none() {
            return Ok(None);
        }
        self.f64_field(key).map(Some)
    }

    /// A required non-negative integer field.
    ///
    /// # Errors
    ///
    /// Returns a message if the field is missing, not numeric, negative,
    /// or fractional.
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        let v = self.f64_field(key)?;
        if v >= 0.0 && v.fract() == 0.0 && v <= usize::MAX as f64 {
            Ok(v as usize)
        } else {
            Err(format!("field {key:?} is not a non-negative integer: {v}"))
        }
    }

    /// An optional non-negative integer field (`None` when absent).
    ///
    /// # Errors
    ///
    /// As [`Fields::usize_field`] when the field is present.
    pub fn opt_usize(&self, key: &str) -> Result<Option<usize>, String> {
        if self.opt(key).is_none() {
            return Ok(None);
        }
        self.usize_field(key).map(Some)
    }

    /// A required array-of-numbers field.
    ///
    /// # Errors
    ///
    /// Returns a message if the field is missing or not an array.
    pub fn arr_field(&self, key: &str) -> Result<Vec<f64>, String> {
        match self.get(key)? {
            JsonValue::Arr(v) => Ok(v.clone()),
            other => Err(format!("field {key:?} is not an array: {other:?}")),
        }
    }
}

pub(crate) fn decode_nonfinite(s: &str) -> Option<f64> {
    match s {
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        "nan" => Some(f64::NAN),
        _ => None,
    }
}

/// Parses one flat JSON object `{"k": v, ...}` where values are numbers,
/// strings, or arrays of numbers — the only shapes [`ObjectBuilder`]
/// emits.
///
/// # Errors
///
/// Returns a message describing the first structural problem (bad
/// delimiter, unterminated string, trailing content, ...).
pub fn parse_flat_object(line: &str) -> Result<Fields, String> {
    let mut chars = line.trim().char_indices().peekable();
    let text = line.trim();
    let expect = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
                  want: char|
     -> Result<(), String> {
        match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected {want:?} at byte {i}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of input")),
        }
    };
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
    };
    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected string, found {other:?}")),
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated string".to_string()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }
    fn parse_number(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
        text: &str,
    ) -> Result<f64, String> {
        let start = chars.peek().map(|(i, _)| *i).unwrap_or(text.len());
        let mut end = start;
        while matches!(
            chars.peek(),
            Some((_, c)) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
        ) {
            end = chars.next().map(|(i, c)| i + c.len_utf8()).unwrap_or(end);
        }
        text[start..end]
            .parse::<f64>()
            .map_err(|e| format!("bad number {:?}: {e}", &text[start..end]))
    }

    expect(&mut chars, '{')?;
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        skip_ws(&mut chars);
        if chars.next().is_some() {
            return Err("trailing content after object".to_string());
        }
        return Ok(Fields(fields));
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some((_, '"')) => JsonValue::Str(parse_string(&mut chars)?),
            Some((_, '[')) => {
                chars.next();
                let mut items = Vec::new();
                skip_ws(&mut chars);
                if matches!(chars.peek(), Some((_, ']'))) {
                    chars.next();
                } else {
                    loop {
                        skip_ws(&mut chars);
                        let item = match chars.peek() {
                            Some((_, '"')) => {
                                let s = parse_string(&mut chars)?;
                                decode_nonfinite(&s)
                                    .ok_or_else(|| format!("bad array item {s:?}"))?
                            }
                            _ => parse_number(&mut chars, text)?,
                        };
                        items.push(item);
                        skip_ws(&mut chars);
                        match chars.next() {
                            Some((_, ',')) => {}
                            Some((_, ']')) => break,
                            other => return Err(format!("bad array separator {other:?}")),
                        }
                    }
                }
                JsonValue::Arr(items)
            }
            _ => JsonValue::Num(parse_number(&mut chars, text)?),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => {}
            Some((_, '}')) => break,
            other => return Err(format!("bad object separator {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after object".to_string());
    }
    Ok(Fields(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_output_parses_back() {
        let json = ObjectBuilder::new()
            .str("response", "stats")
            .int("queue_depth", 3)
            .num("hit_rate", 0.5)
            .num("worst", f64::INFINITY)
            .arr("hist", &[1.0, 0.0, 2.0])
            .str("note", "quotes \" and\nnewlines")
            .build();
        let fields = parse_flat_object(&json).unwrap();
        assert_eq!(fields.str_field("response").unwrap(), "stats");
        assert_eq!(fields.usize_field("queue_depth").unwrap(), 3);
        assert_eq!(fields.f64_field("hit_rate").unwrap(), 0.5);
        assert_eq!(fields.f64_field("worst").unwrap(), f64::INFINITY);
        assert_eq!(fields.arr_field("hist").unwrap(), vec![1.0, 0.0, 2.0]);
        assert_eq!(
            fields.str_field("note").unwrap(),
            "quotes \" and\nnewlines"
        );
    }

    #[test]
    fn empty_object_round_trips() {
        let json = ObjectBuilder::new().build();
        assert_eq!(json, "{}");
        assert!(parse_flat_object(&json).unwrap().opt("x").is_none());
    }

    #[test]
    fn optional_accessors_distinguish_absent_from_mistyped() {
        let fields = parse_flat_object("{\"a\": 1, \"b\": \"text\"}").unwrap();
        assert_eq!(fields.opt_usize("a").unwrap(), Some(1));
        assert_eq!(fields.opt_usize("missing").unwrap(), None);
        assert_eq!(fields.opt_str("b").unwrap(), Some("text".to_string()));
        assert_eq!(fields.opt_str("missing").unwrap(), None);
        assert!(fields.opt_usize("b").is_err());
        assert!(fields.opt_str("a").is_err());
    }

    #[test]
    fn rejects_trailing_content_even_after_empty_object() {
        assert!(parse_flat_object("{} extra").is_err());
        assert!(parse_flat_object("{\"a\": 1} extra").is_err());
    }
}
