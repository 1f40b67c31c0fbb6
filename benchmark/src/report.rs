//! What a run reports, and the JSON it is printed as.

use serde::Value;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations issued, warm-up and post-recovery checks included.
    pub attempted: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
    /// The first few failures, in words.
    pub complaints: Vec<String>,
    /// The metrics `BENCHMARK.json` declares for this kind of run.
    pub metrics: Vec<Metric>,
    /// Measured as well, but printed only: not in the result line.
    pub also_measured: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line result object the driver reads.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = obj([
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        render(&obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]))
    }
}

/// A JSON object from `(key, value)` pairs, in the order given.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Lets a [`Value`] tree out through the vendored `serde_json` front door.
struct TreeRef<'a>(&'a Value);

impl serde::Serialize for TreeRef<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// And back in.
struct Tree(Value);

impl serde::Deserialize for Tree {
    fn from_value(v: &Value) -> Result<Tree, serde::DeError> {
        Ok(Tree(v.clone()))
    }
}

/// Compact JSON text of `value`.
pub fn render(value: &Value) -> String {
    serde_json::to_string(&TreeRef(value)).expect("a Value tree always renders")
}

/// Indented JSON text of `value`.
pub fn render_pretty(value: &Value) -> String {
    serde_json::to_string_pretty(&TreeRef(value)).expect("a Value tree always renders")
}

/// Parse JSON text into a [`Value`] tree.
pub fn parse(text: &str) -> Result<Value, serde_json::Error> {
    serde_json::from_str::<Tree>(text).map(|t| t.0)
}
