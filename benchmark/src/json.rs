//! The benchmark's JSON output, hand-written because the vendored `serde` is
//! a no-op stub: the one-line result the driver reads.

use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    /// A metric; the name must match `[A-Za-z0-9_.-]+` and the value be finite.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        assert!(valid_name(name), "metric name {name:?} must match [A-Za-z0-9_.-]+");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric { name, unit, value }
    }
}

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result object the driver reads from the last line of stdout. Values
/// keep every digit measured (`f64` prints its shortest exact form).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    write!(out, "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, ")
        .expect("write to String");
    out.push_str("\"metrics\": {");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_string(&mut out, m.name);
        write!(out, ": {{\"value\": {}, \"unit\": ", m.value).expect("write to String");
        push_string(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A JSON value, as far as the result line uses the grammar.
    #[derive(Debug, PartialEq)]
    enum Value {
        Bool(bool),
        Number(f64),
        Text(String),
        Object(BTreeMap<String, Value>),
    }

    struct Parser<'a>(&'a [u8]);

    impl Parser<'_> {
        fn skip(&mut self) {
            while let [b' ', rest @ ..] = self.0 {
                self.0 = rest;
            }
        }

        fn eat(&mut self, token: &str) -> bool {
            self.skip();
            let hit = self.0.starts_with(token.as_bytes());
            if hit {
                self.0 = &self.0[token.len()..];
            }
            hit
        }

        fn text(&mut self) -> String {
            assert!(self.eat("\""));
            let mut out = Vec::new();
            loop {
                match self.0 {
                    [b'"', rest @ ..] => {
                        self.0 = rest;
                        return String::from_utf8(out).unwrap();
                    }
                    [b'\\', c, rest @ ..] => {
                        out.push(*c);
                        self.0 = rest;
                    }
                    [c, rest @ ..] => {
                        out.push(*c);
                        self.0 = rest;
                    }
                    [] => panic!("unterminated string"),
                }
            }
        }

        fn value(&mut self) -> Value {
            self.skip();
            if self.eat("true") {
                Value::Bool(true)
            } else if self.eat("false") {
                Value::Bool(false)
            } else if self.0[0] == b'"' {
                Value::Text(self.text())
            } else if self.eat("{") {
                let mut map = BTreeMap::new();
                while !self.eat("}") {
                    let key = self.text();
                    assert!(self.eat(":"));
                    map.insert(key, self.value());
                    self.eat(",");
                }
                Value::Object(map)
            } else {
                let end = self.0.iter().position(|b| b",} ".contains(b)).unwrap_or(self.0.len());
                let number = std::str::from_utf8(&self.0[..end]).unwrap().parse().unwrap();
                self.0 = &self.0[end..];
                Value::Number(number)
            }
        }
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = [
            Metric::new("replay_recs_per_s", "1/s", 264_244.062_517),
            Metric::new("ledger.residual_pct", "%", -3.25),
            Metric::new("setup_s", "s", 1e-7),
        ];
        let line = result_line(true, 171_349, 0, &metrics);
        assert!(!line.contains('\n'));
        let Value::Object(top) = Parser(line.as_bytes()).value() else { panic!("not an object") };
        assert_eq!(top.keys().collect::<Vec<_>>(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(top["correct"], Value::Bool(true));
        assert_eq!(top["attempted"], Value::Number(171_349.0));
        let Value::Object(parsed) = &top["metrics"] else { panic!("metrics not an object") };
        assert_eq!(parsed.len(), metrics.len());
        for m in &metrics {
            let Value::Object(entry) = &parsed[m.name] else { panic!("metric not an object") };
            assert_eq!(entry["value"], Value::Number(m.value), "{} keeps every digit", m.name);
            assert_eq!(entry["unit"], Value::Text(m.unit.to_string()));
        }
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("serve.store.commit_p99_us"));
        assert!(valid_name("trace.overhead_pct") && valid_name("a-b_c.9"));
        assert!(!valid_name("") && !valid_name("commit stall") && !valid_name("µs"));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        Metric::new("replay_recs_per_s", "1/s", f64::NAN);
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_string(&mut out, "a\"b\\c\n");
        assert_eq!(out, "\"a\\\"b\\\\c\\u000a\"");
    }
}
