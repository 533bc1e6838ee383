//! A tiny JSON object writer for the helper's reports.

pub struct Obj(Vec<String>);

impl Obj {
    pub fn new() -> Obj {
        Obj(Vec::new())
    }

    pub fn num(mut self, key: &str, value: f64) -> Obj {
        self.0
            .push(format!("\"{key}\": {}", noisemine_serve::json::num(value)));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Obj {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    pub fn raw(mut self, key: &str, json: String) -> Obj {
        self.0.push(format!("\"{key}\": {json}"));
        self
    }

    pub fn strs(self, key: &str, values: &[String]) -> Obj {
        let items: Vec<String> = values
            .iter()
            .map(|v| noisemine_serve::json::escape(v))
            .collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

pub fn write(path: &str, obj: &Obj) -> Result<(), String> {
    std::fs::write(path, obj.render() + "\n").map_err(|e| format!("{path}: {e}"))
}
