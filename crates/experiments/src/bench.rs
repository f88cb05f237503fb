//! One bench harness: `pwsched bench <name|all> [--quick] [--out DIR]
//! [--check] [--threads T]`.
//!
//! Every bench body is a function returning a [`Json`] value, written
//! as `BENCH_<name>.json`, and declares its regression gates next to the
//! metrics it emits. `--check` parses the committed `BENCH_<name>.json`
//! and runs the one `check_gates` path: every gate matches rows **by key**
//! (`n`, `(n, fault)`, `(family, objective)`, `id`, …), never by
//! position, so a reordered baseline still gates the same rows and a
//! missing row fails instead of silently gating something else: a row
//! of ours the baseline lacks, and, for gates whose rows are the same
//! in quick and full runs, a baseline row our run lacks.
//!
//! Numbers are kept as their emitted text ([`Json::Num`]), so parsing a
//! committed file and writing it back reproduces it byte for byte, and
//! the bitwise (`min_period_bits`) and exact-decimal (`period_ratio`)
//! gates compare text, not re-rounded floats.

use std::fmt;
use std::path::Path;

mod delta;
mod failover;
mod kernel;
mod serve;
mod sweep;
mod tenant;

/// A JSON value. Objects keep their field order; numbers keep their
/// text.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number exactly as emitted (`302.33`, `1.000000`, `5300`).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An integer (or any number printed as is).
    pub(crate) fn num(v: impl fmt::Display) -> Json {
        Json::Num(v.to_string())
    }

    /// `v` in fixed point with `decimals` fraction digits.
    pub(crate) fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// An object with the given fields, in order.
    pub(crate) fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value of field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of array field `key` (empty when absent).
    pub(crate) fn rows_of(&self, key: &str) -> &[Json] {
        match self.get(key) {
            Some(Json::Arr(rows)) => rows,
            _ => &[],
        }
    }

    /// The text of a number or a string.
    pub fn text(&self) -> Option<&str> {
        match self {
            Json::Num(s) | Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The BENCH file layout: one top-level field per line, nested
    /// values inline, trailing newline.
    pub(crate) fn to_file(&self) -> String {
        let Json::Obj(fields) = self else {
            return format!("{self}\n");
        };
        let lines: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("  {}: {v}", Json::Str(k.clone())))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Parses one JSON value (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// The inline form: `{"k": v, "k2": v2}`, `[a, b]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(s) => f.write_str(s),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    if matches!(c, '"' | '\\') {
                        f.write_str("\\")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", Json::Str(k.clone())))
                    .collect();
                write!(f, "{{{}}}", fields.join(", "))
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// Skips whitespace, then consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.at) == Some(&c);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    /// The items of a `[…]` or `{…}` after its opening bracket, each
    /// parsed by `item`, up to the `close` bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                items.push(item(self)?);
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(items)
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat(b'[') {
            return self.seq(b']', Self::value).map(Json::Arr);
        }
        if self.eat(b'{') {
            let field = |p: &mut Self| Ok((p.string()?, (p.expect(b':')?, p.value()?).1));
            return self.seq(b'}', field).map(Json::Obj);
        }
        let rest = &self.s[self.at..];
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(v);
            }
        }
        if rest.first() == Some(&b'"') {
            return self.string().map(Json::Str);
        }
        let len = rest
            .iter()
            .take_while(|c| c.is_ascii_digit() || matches!(c, b'.' | b'-' | b'+' | b'e' | b'E'))
            .count();
        let text = std::str::from_utf8(&rest[..len]).expect("ASCII");
        if text.parse::<f64>().is_err() {
            return Err(self.err("expected a value"));
        }
        self.at += len;
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = *self
                .s
                .get(self.at)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| self.err(&e.to_string())),
                // Only the two escapes the writer emits.
                b'\\' => match self.s.get(self.at) {
                    Some(&c @ (b'"' | b'\\')) => {
                        self.at += 1;
                        out.push(c);
                    }
                    _ => return Err(self.err("unsupported escape")),
                },
                c => out.push(c),
            }
        }
    }
}

/// How a gated metric must compare with its baseline value.
#[derive(Clone, Copy)]
pub(crate) enum Rule {
    /// `ours >= max(base * (1 - tol), hard(our row))`: a relative window
    /// backed by a hard floor that may depend on the row.
    RelFloor { tol: f64, hard: fn(&Json) -> f64 },
    /// `ours >= base - d`.
    AbsFloor(f64),
    /// `ours <= base + d`.
    AbsCeil(f64),
    /// Over all rows at once: `max(ours) >= max(base) * (1 - tol)`.
    PeakFloor(f64),
    /// The emitted text equals the baseline's.
    Exact,
    /// Like [`Rule::Exact`] (for bit patterns), but rows the baseline
    /// lacks — a deeper run than it recorded — are reported, not failed.
    Bits,
}

/// One regression gate over the rows of a top-level array.
pub(crate) struct Gate {
    /// The top-level array whose rows are gated.
    rows: &'static str,
    /// The fields that identify a row in both files.
    key: &'static [&'static str],
    /// The gated field.
    metric: &'static str,
    rule: Rule,
    /// Whether every baseline row must be in our run too: set where the
    /// rows are the same in quick and full runs, unset where the quick
    /// run is a subset of the baseline.
    complete: bool,
}

/// The per-row gate log and its tallies.
#[derive(Default)]
struct Tally {
    log: Vec<String>,
    gated: usize,
    failed: usize,
}

impl Tally {
    fn verdict(&mut self, ok: bool, line: String) {
        self.gated += 1;
        self.failed += usize::from(!ok);
        let tag = if ok { "ok" } else { "REGRESSION" };
        self.log.push(format!("{tag}: {line}"));
    }
}

/// Gates `ours` against `base`, matching rows by key. `Ok` and `Err`
/// both carry the per-row log; `Err` when any gate failed or when no
/// row was gated at all.
pub(crate) fn check_gates(gates: &[Gate], ours: &Json, base: &Json) -> Result<String, String> {
    let mut t = Tally::default();
    for gate in gates {
        let (rows, metric) = (gate.rows, gate.metric);
        let (our_rows, base_rows) = (ours.rows_of(rows), base.rows_of(rows));
        let value = |row: &Json| row.get(metric).and_then(Json::as_f64);
        let same_key = |a: &Json, b: &Json| {
            gate.key
                .iter()
                .all(|k| a.get(k).is_some() && a.get(k) == b.get(k))
        };
        let id = |row: &Json| {
            let key: Vec<String> = gate
                .key
                .iter()
                .map(|k| format!("{k}={}", row.get(k).unwrap_or(&Json::Null)))
                .collect();
            format!("{rows}[{}] {metric}", key.join(" "))
        };
        if gate.complete {
            for b in base_rows {
                if !our_rows.iter().any(|o| same_key(o, b)) {
                    t.verdict(false, format!("{}: our run has no such row", id(b)));
                }
            }
        }
        if let Rule::PeakFloor(tol) = gate.rule {
            let peak = |rows: &[Json]| rows.iter().filter_map(value).reduce(f64::max);
            let line = format!("peak {rows}[*].{metric}");
            match (peak(our_rows), peak(base_rows)) {
                (Some(o), Some(b)) => {
                    let floor = b * (1.0 - tol);
                    t.verdict(
                        o >= floor,
                        format!("{line} {o} >= {floor:.1} (baseline {b} - {tol})"),
                    );
                }
                _ => t.verdict(false, format!("{line}: no values to gate")),
            }
            continue;
        }
        for row in our_rows {
            let id = id(row);
            let Some(base_row) = base_rows.iter().find(|b| same_key(row, b)) else {
                match gate.rule {
                    Rule::Bits => t.log.push(format!("new row (not in baseline): {id}")),
                    _ => t.verdict(false, format!("{id}: the baseline has no such row")),
                }
                continue;
            };
            if let Rule::Exact | Rule::Bits = gate.rule {
                let o = row.get(metric).and_then(Json::text);
                let b = base_row.get(metric).and_then(Json::text);
                let ok = o.is_some() && o == b;
                let (o, b) = (o.unwrap_or("-"), b.unwrap_or("-"));
                let op = if ok { "==" } else { "!=" };
                t.verdict(ok, format!("{id} {o} {op} baseline {b}"));
                continue;
            }
            let (Some(o), Some(b)) = (value(row), value(base_row)) else {
                t.verdict(false, format!("{id}: not a number in both files"));
                continue;
            };
            let (ok, bound) = match gate.rule {
                Rule::RelFloor { tol, hard } => {
                    let floor = (b * (1.0 - tol)).max(hard(row));
                    (
                        o >= floor,
                        format!(
                            ">= {floor:.4} (baseline {b} - {tol}, hard floor {})",
                            hard(row)
                        ),
                    )
                }
                Rule::AbsFloor(d) => (o >= b - d, format!(">= {:.4} (baseline {b} - {d})", b - d)),
                Rule::AbsCeil(d) => (o <= b + d, format!("<= {:.4} (baseline {b} + {d})", b + d)),
                Rule::PeakFloor(_) | Rule::Exact | Rule::Bits => unreachable!("gated above"),
            };
            t.verdict(ok, format!("{id} {o} {bound}"));
        }
    }
    if t.gated == 0 {
        t.verdict(
            false,
            "the baseline gated no rows; refusing a vacuous pass".into(),
        );
    }
    let log = t.log.join("\n");
    if t.failed == 0 {
        Ok(log)
    } else {
        Err(log)
    }
}

/// Run-time options shared by every bench.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// The CI-sized run; each bench documents what it shrinks.
    pub quick: bool,
    /// Shard threads for the kernel's exact rows (bit-identical at any
    /// count); the other benches fix their own.
    pub threads: usize,
}

/// A registered bench: its body and its gates.
pub struct Bench {
    pub name: &'static str,
    pub(crate) run: fn(&Opts) -> Result<Json, String>,
    pub(crate) gates: &'static [Gate],
}

impl Bench {
    /// `BENCH_<name>.json`: the committed baseline's file name, and the
    /// name `--out DIR` writes under.
    pub(crate) fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// Every bench, in `bench all` order.
pub const BENCHES: [Bench; 6] = [
    serve::BENCH,
    delta::BENCH,
    tenant::BENCH,
    failover::BENCH,
    sweep::BENCH,
    kernel::BENCH,
];

/// The registered bench called `name`.
pub fn find(name: &str) -> Option<&'static Bench> {
    BENCHES.iter().find(|b| b.name == name)
}

/// Runs `bench` and writes its JSON to `out/BENCH_<name>.json` (stdout
/// without `out`). With `check`, gates the result against the committed
/// `BENCH_<name>.json` in the working directory; the gate log goes to
/// stderr.
pub fn run(bench: &Bench, opts: &Opts, out: Option<&Path>, check: bool) -> Result<(), String> {
    let json = (bench.run)(opts)?;
    let text = json.to_file();
    match out {
        Some(dir) => {
            let path = dir.join(bench.file_name());
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, &text))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{text}"),
    }
    if !check {
        return Ok(());
    }
    let path = bench.file_name();
    let base =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let base = Json::parse(&base).map_err(|e| format!("{path}: {e}"))?;
    match check_gates(bench.gates, &json, &base) {
        Ok(log) => {
            eprintln!("{log}");
            Ok(())
        }
        Err(log) => Err(format!("{log}\ngate failed against {path}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baselines, as `(bench name, file text)`.
    const BASELINES: [(&str, &str); 6] = [
        ("serve", include_str!("../../../BENCH_serve.json")),
        ("delta", include_str!("../../../BENCH_delta.json")),
        ("tenant", include_str!("../../../BENCH_tenant.json")),
        ("failover", include_str!("../../../BENCH_failover.json")),
        ("sweep", include_str!("../../../BENCH_sweep.json")),
        ("kernel", include_str!("../../../BENCH_kernel.json")),
    ];

    fn baseline(name: &str) -> Json {
        let (_, text) = BASELINES.iter().find(|(n, _)| *n == name).expect("known");
        Json::parse(text).expect("committed baseline parses")
    }

    fn gates(name: &str) -> &'static [Gate] {
        find(name).expect("registered").gates
    }

    fn rows_mut<'a>(json: &'a mut Json, rows: &str) -> &'a mut Vec<Json> {
        let Json::Obj(fields) = json else {
            panic!("not an object")
        };
        match fields.iter_mut().find(|(k, _)| k == rows) {
            Some((_, Json::Arr(items))) => items,
            _ => panic!("no array {rows}"),
        }
    }

    fn field_mut<'a>(json: &'a mut Json, rows: &str, i: usize, key: &str) -> &'a mut Json {
        let Json::Obj(row) = &mut rows_mut(json, rows)[i] else {
            panic!("row is not an object")
        };
        &mut row.iter_mut().find(|(k, _)| k == key).expect("field").1
    }

    /// Checks a copy of `name`'s baseline, edited by `edit`, against the
    /// unedited baseline.
    fn check_edited(name: &str, edit: impl FnOnce(&mut Json)) -> Result<String, String> {
        let base = baseline(name);
        let mut ours = base.clone();
        edit(&mut ours);
        check_gates(gates(name), &ours, &base)
    }

    #[test]
    fn committed_baselines_round_trip_byte_for_byte() {
        for (name, text) in BASELINES {
            assert_eq!(baseline(name).to_file(), text, "BENCH_{name}.json");
        }
    }

    #[test]
    fn every_bench_is_registered_and_passes_against_itself() {
        for (name, _) in BASELINES {
            let log = check_edited(name, |_| {}).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!log.contains("REGRESSION"), "{name}: {log}");
        }
        assert_eq!(BENCHES.len(), BASELINES.len());
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let v = Json::obj([
            ("s", "a \"quoted\" \\ word".into()),
            ("e", Json::Arr(vec![])),
            ("o", Json::Obj(vec![])),
            ("x", Json::Num("-1.5e-3".into())),
        ]);
        assert_eq!(Json::parse(&v.to_file()).expect("parses"), v);
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "1 2",
            "-",
            "tru",
            "\"\\n\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn bitwise_gate_fails_on_a_one_bit_flip() {
        let flipped = check_edited("kernel", |j| {
            let bits = field_mut(j, "exact", 3, "min_period_bits");
            let v = u64::from_str_radix(bits.text().unwrap(), 16).unwrap() ^ 1;
            *bits = Json::Str(format!("{v:016x}"));
        });
        assert!(flipped.unwrap_err().contains("zoo-n16-p6"));
    }

    #[test]
    fn exact_decimal_gate_fails_on_a_one_ulp_decimal_change() {
        let edited = check_edited("failover", |j| {
            let ratio = field_mut(j, "cases", 1, "period_ratio");
            assert_eq!(ratio.text(), Some("1.006442"));
            *ratio = Json::fixed(1.006443, 6);
        });
        assert!(edited.is_err());
    }

    #[test]
    fn floors_and_ceilings_fail_just_past_their_bound() {
        // tenant: mean_ratio >= base - 0.05 (skewed-weights/max-min: 0.9048).
        let at = |v: f64| {
            check_edited("tenant", |j| {
                *field_mut(j, "quality", 3, "mean_ratio") = Json::fixed(v, 4)
            })
        };
        assert!(at(0.8548).is_ok());
        assert!(at(0.8547).is_err());
        // sweep: distance <= base + 0.05 (e1/H2: 0.0240).
        let at = |v: f64| {
            check_edited("sweep", |j| {
                *field_mut(j, "front_quality", 1, "distance") = Json::fixed(v, 4)
            })
        };
        assert!(at(0.0739).is_ok());
        assert!(at(0.0741).is_err());
        // delta: speedup >= max(0.25 * base, hard) (n=120: 22.59).
        let at = |v: f64| {
            check_edited("delta", |j| {
                *field_mut(j, "sizes", 1, "speedup") = Json::fixed(v, 2)
            })
        };
        assert!(at(5.65).is_ok());
        assert!(at(5.64).is_err());
        // delta's hard floor: 5x at n >= 120 even against a slow baseline.
        let base = {
            let mut b = baseline("delta");
            *field_mut(&mut b, "sizes", 1, "speedup") = Json::fixed(8.0, 2);
            b
        };
        let mut ours = base.clone();
        *field_mut(&mut ours, "sizes", 1, "speedup") = Json::fixed(4.99, 2);
        assert!(check_gates(gates("delta"), &ours, &base).is_err());
        // failover's drift-straggler hard floor is 1x.
        let base = {
            let mut b = baseline("failover");
            *field_mut(&mut b, "cases", 0, "speedup") = Json::fixed(1.1, 2);
            b
        };
        let mut ours = base.clone();
        *field_mut(&mut ours, "cases", 0, "speedup") = Json::fixed(0.99, 2);
        assert!(check_gates(gates("failover"), &ours, &base).is_err());
        // serve: peak warm rps >= 0.70 * baseline peak (34180.2).
        let at = |v: f64| {
            check_edited("serve", |j| {
                for i in 0..3 {
                    *field_mut(j, "warm", i, "requests_per_sec") = Json::fixed(v, 1);
                }
            })
        };
        assert!(at(23926.2).is_ok());
        assert!(at(23926.1).is_err());
    }

    #[test]
    fn shuffled_baseline_rows_still_pass() {
        for (name, _) in BASELINES {
            let ours = baseline(name);
            let mut base = ours.clone();
            for gate in gates(name) {
                let rows = rows_mut(&mut base, gate.rows);
                rows.reverse();
                rows.rotate_left(1);
            }
            let log =
                check_gates(gates(name), &ours, &base).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!log.contains("REGRESSION"), "{name}: {log}");
        }
    }

    #[test]
    fn a_missing_keyed_row_fails() {
        for (name, rows) in [
            ("delta", "sizes"),
            ("tenant", "quality"),
            ("failover", "cases"),
            ("sweep", "front_quality"),
        ] {
            let ours = baseline(name);
            let mut base = ours.clone();
            rows_mut(&mut base, rows).remove(1);
            let err = check_gates(gates(name), &ours, &base).unwrap_err();
            assert!(
                err.contains("the baseline has no such row"),
                "{name}: {err}"
            );
        }
        // Kernel rows absent from the baseline are reported, not failed.
        let ours = baseline("kernel");
        let mut base = ours.clone();
        rows_mut(&mut base, "exact").pop();
        let log = check_gates(gates("kernel"), &ours, &base).expect("new kernel rows pass");
        assert!(
            log.contains("new row (not in baseline): exact[id=\"zoo-n30-p16\"]"),
            "{log}"
        );
    }

    #[test]
    fn a_baseline_row_missing_from_our_run_fails() {
        // Where quick and full runs share their rows.
        for (name, rows) in [
            ("serve", "warm"),
            ("tenant", "quality"),
            ("sweep", "front_quality"),
        ] {
            let base = baseline(name);
            let mut ours = base.clone();
            rows_mut(&mut ours, rows).remove(1);
            let err = check_gates(gates(name), &ours, &base).unwrap_err();
            assert!(err.contains("our run has no such row"), "{name}: {err}");
        }
    }

    #[test]
    fn a_kernel_check_that_gates_zero_rows_is_refused() {
        let ours = baseline("kernel");
        let mut base = ours.clone();
        rows_mut(&mut base, "exact").clear();
        rows_mut(&mut base, "exact_uniform").clear();
        let err = check_gates(gates("kernel"), &ours, &base).unwrap_err();
        assert!(err.contains("gated no rows"), "{err}");
    }
}
