//! A minimal, write-only JSON writer.
//!
//! The workspace *emits* JSON (experiment results, trace metadata)
//! through [`ToJson`] — "append your JSON form to this string" — and
//! composite values use [`JsonObject`] / [`write_array`].
//!
//! Numbers are emitted per RFC 8259 (non-finite floats become `null`),
//! strings are escaped per the JSON grammar.
//!
//! # Example
//!
//! ```
//! use ev8_util::json::{JsonObject, ToJson};
//!
//! let mut o = JsonObject::new();
//! o.field("name", &"gcc");
//! o.field("misp_per_ki", &4.5f64);
//! o.field("branches", &12086u64);
//! assert_eq!(
//!     o.finish(),
//!     r#"{"name":"gcc","misp_per_ki":4.5,"branches":12086}"#
//! );
//! ```

use std::fmt::Write as _;

/// Append-your-JSON-form serialization.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// This value's JSON representation as a fresh string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

macro_rules! impl_int_tojson {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

impl_int_tojson!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // `{}` on f64 always produces a valid JSON number for finite
            // values (no exponent-less trailing dot, no localization).
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        write_array(out, self.iter());
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_array(out, self.iter());
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Appends a JSON array of `items` to `out`.
pub fn write_array<'a, T: ToJson + 'a>(out: &mut String, items: impl Iterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// An incremental JSON object builder preserving field order.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    fields: usize,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            fields: 0,
        }
    }

    /// Appends one `"key": value` field.
    pub fn field(&mut self, key: &str, value: &dyn ToJson) -> &mut Self {
        if self.fields > 0 {
            self.buf.push(',');
        }
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
        value.write_json(&mut self.buf);
        self.fields += 1;
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Closes the object, appending the JSON text to `out`.
    pub fn finish_into(self, out: &mut String) {
        out.push_str(&self.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_serialize() {
        assert_eq!(true.to_json(), "true");
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-7i32).to_json(), "-7");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!("hi".to_json(), "\"hi\"");
        assert_eq!(Option::<u32>::None.to_json(), "null");
        assert_eq!(Some(3u32).to_json(), "3");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!("a\"b".to_json(), r#""a\"b""#);
        assert_eq!("back\\slash".to_json(), r#""back\\slash""#);
        assert_eq!("line\nbreak".to_json(), r#""line\nbreak""#);
        assert_eq!("\u{1}".to_json(), r#""\u0001""#);
        assert_eq!("unicode: é✓".to_json(), "\"unicode: é✓\"");
    }

    #[test]
    fn arrays_and_objects_compose() {
        let v = vec![1u32, 2, 3];
        assert_eq!(v.to_json(), "[1,2,3]");
        let empty: Vec<u32> = Vec::new();
        assert_eq!(empty.to_json(), "[]");

        let mut o = JsonObject::new();
        o.field("xs", &v).field("label", &"t");
        assert_eq!(o.finish(), r#"{"xs":[1,2,3],"label":"t"}"#);
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn nested_object_via_finish_into() {
        let mut inner = JsonObject::new();
        inner.field("a", &1u8);
        let mut s = String::new();
        inner.finish_into(&mut s);
        assert_eq!(s, r#"{"a":1}"#);
    }
}
