//! Log summarizer: per-function and per-kind histograms over a trace.
//!
//! Consumes either in-memory [`TraceEvent`]s or the JSONL a
//! [`crate::JsonlSink`] wrote — the `ifp-trace` binary is a thin shell
//! around the latter. The JSONL parser is deliberately minimal: it
//! understands exactly the flat objects this crate emits (string,
//! number, bool and `"0x…"` hex-string values; no nesting).

use crate::event::{Category, CategoryMask, EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;

/// Histograms over a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Total events.
    pub total: u64,
    /// Events per kind name (`alloc`, `promote`, `check`, …).
    pub by_kind: BTreeMap<String, u64>,
    /// Events per function.
    pub by_func: BTreeMap<String, u64>,
    /// Events per (function, kind).
    pub by_func_kind: BTreeMap<(String, String), u64>,
    /// Failed checks (subset of `check`).
    pub checks_failed: u64,
    /// Promote outcomes per name (`valid`, `legacy_bypass`, …).
    pub promotes: BTreeMap<String, u64>,
    /// Total metadata words fetched by promotes.
    pub metadata_fetches: u64,
    /// Narrowing outcomes per name.
    pub narrowings: BTreeMap<String, u64>,
    /// Metadata cache hits.
    pub cache_hits: u64,
    /// Metadata cache misses.
    pub cache_misses: u64,
    /// Failed MAC verifications.
    pub mac_failures: u64,
    /// Traps per kind name.
    pub traps: BTreeMap<String, u64>,
    /// Temporal violations per kind name (`use_after_free`,
    /// `double_free`).
    pub temporal_traps: BTreeMap<String, u64>,
    /// Regions that entered quarantine.
    pub quarantine_enters: u64,
    /// Regions that drained from quarantine back to the allocator.
    pub quarantine_drains: u64,
    /// Input lines the JSONL parser could not digest.
    pub malformed_lines: u64,
}

/// A parsed flat-JSON value.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    Str(String),
    Num(u64),
    Bool(bool),
}

impl Val {
    fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numbers parse as themselves; `"0x…"` strings as hex.
    fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Num(n) => Some(*n),
            Val::Str(s) => s
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok()),
            Val::Bool(_) => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"k":v,…}`) into key/value pairs.
/// Returns `None` on anything it does not understand.
fn parse_flat_object(line: &str) -> Option<BTreeMap<String, Val>> {
    let s = line.trim();
    let inner = s.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    let bytes = inner.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Key.
        while i < bytes.len() && (bytes[i] == b',' || bytes[i].is_ascii_whitespace()) {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] != b'"' {
            return None;
        }
        i += 1;
        let kstart = i;
        while i < bytes.len() && bytes[i] != b'"' {
            i += 1;
        }
        let key = inner.get(kstart..i)?.to_string();
        i += 1; // closing quote
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        // Value.
        let val = if i < bytes.len() && bytes[i] == b'"' {
            i += 1;
            let mut v: Vec<u8> = Vec::new();
            loop {
                match bytes.get(i)? {
                    b'"' => break,
                    // Every JSON escape: the emitter writes `\"`, `\\`,
                    // `\n`, `\r`, `\t` and `\u00XX`; the rest may come
                    // from hand-edited logs.
                    b'\\' => {
                        i += 1;
                        let c = match bytes.get(i)? {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'b' => '\u{8}',
                            b'f' => '\u{c}',
                            b'n' => '\n',
                            b'r' => '\r',
                            b't' => '\t',
                            b'u' => {
                                let hex = bytes.get(i + 1..i + 5)?;
                                if !hex.iter().all(u8::is_ascii_hexdigit) {
                                    return None;
                                }
                                i += 4;
                                let hex = std::str::from_utf8(hex).ok()?;
                                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                            }
                            _ => return None,
                        };
                        let mut buf = [0u8; 4];
                        v.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    &b => v.push(b),
                }
                i += 1;
            }
            i += 1;
            Val::Str(String::from_utf8(v).ok()?)
        } else {
            let vstart = i;
            while i < bytes.len() && bytes[i] != b',' {
                i += 1;
            }
            let tok = inner.get(vstart..i)?.trim();
            match tok {
                "true" => Val::Bool(true),
                "false" => Val::Bool(false),
                _ => Val::Num(tok.parse().ok()?),
            }
        };
        out.insert(key, val);
    }
    Some(out)
}

impl Summary {
    /// Accumulates one in-memory event.
    pub fn add_event(&mut self, ev: &TraceEvent, funcs: &[String]) {
        let func = funcs
            .get(ev.func as usize)
            .map_or("?", |n| n.as_str())
            .to_string();
        let kind = ev.kind_name().to_string();
        self.total += 1;
        *self.by_kind.entry(kind.clone()).or_insert(0) += 1;
        *self.by_func.entry(func.clone()).or_insert(0) += 1;
        *self.by_func_kind.entry((func, kind)).or_insert(0) += 1;
        match ev.kind {
            EventKind::Check { passed, .. } => {
                if !passed {
                    self.checks_failed += 1;
                }
            }
            EventKind::Promote {
                kind,
                narrowing,
                fetches,
                ..
            } => {
                *self.promotes.entry(kind.name().to_string()).or_insert(0) += 1;
                *self
                    .narrowings
                    .entry(narrowing.name().to_string())
                    .or_insert(0) += 1;
                self.metadata_fetches += u64::from(fetches);
            }
            EventKind::Cache { hit, .. } => {
                if hit {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
            }
            EventKind::Mac { ok, .. } => {
                if !ok {
                    self.mac_failures += 1;
                }
            }
            EventKind::Trap { kind, .. } => {
                *self.traps.entry(kind.name().to_string()).or_insert(0) += 1;
            }
            EventKind::TemporalTrap { kind, .. } => {
                *self
                    .temporal_traps
                    .entry(kind.name().to_string())
                    .or_insert(0) += 1;
            }
            EventKind::Quarantine { drained, .. } => {
                if drained {
                    self.quarantine_drains += 1;
                } else {
                    self.quarantine_enters += 1;
                }
            }
            EventKind::Alloc { .. }
            | EventKind::Free { .. }
            | EventKind::Tag { .. }
            | EventKind::Revoke { .. } => {}
        }
    }

    /// Accumulates every event of a log.
    pub fn add_log(&mut self, log: &crate::TraceLog) {
        for ev in &log.events {
            self.add_event(ev, &log.funcs);
        }
    }

    /// Accumulates one JSONL line. Blank lines are ignored; lines that
    /// fail to parse are counted in [`Summary::malformed_lines`].
    pub fn add_line(&mut self, line: &str) {
        self.add_line_filtered(line, CategoryMask::ALL);
    }

    /// [`Summary::add_line`] restricted to the categories in `mask`:
    /// well-formed lines of filtered-out (or unrecognized) kinds are
    /// skipped silently, malformed lines are still counted.
    pub fn add_line_filtered(&mut self, line: &str, mask: CategoryMask) {
        if line.trim().is_empty() {
            return;
        }
        let Some(obj) = parse_flat_object(line) else {
            self.malformed_lines += 1;
            return;
        };
        let (Some(kind), Some(func)) = (
            obj.get("kind").and_then(Val::as_str).map(str::to_string),
            obj.get("func").and_then(Val::as_str).map(str::to_string),
        ) else {
            self.malformed_lines += 1;
            return;
        };
        if mask != CategoryMask::ALL {
            match Category::from_name(&kind) {
                Some(cat) if mask.contains(cat) => {}
                _ => return,
            }
        }
        self.total += 1;
        *self.by_kind.entry(kind.clone()).or_insert(0) += 1;
        *self.by_func.entry(func.clone()).or_insert(0) += 1;
        *self.by_func_kind.entry((func, kind.clone())).or_insert(0) += 1;
        let bfield = |k: &str| obj.get(k).and_then(Val::as_bool);
        let sfield = |k: &str| obj.get(k).and_then(Val::as_str).map(str::to_string);
        match kind.as_str() {
            "check" if bfield("passed") == Some(false) => {
                self.checks_failed += 1;
            }
            "promote" => {
                if let Some(p) = sfield("promote") {
                    *self.promotes.entry(p).or_insert(0) += 1;
                }
                if let Some(n) = sfield("narrowing") {
                    *self.narrowings.entry(n).or_insert(0) += 1;
                }
                if let Some(n) = obj.get("fetches").and_then(Val::as_u64) {
                    self.metadata_fetches += n;
                }
            }
            "cache" => match bfield("hit") {
                Some(true) => self.cache_hits += 1,
                Some(false) => self.cache_misses += 1,
                None => {}
            },
            "mac" if bfield("ok") == Some(false) => {
                self.mac_failures += 1;
            }
            "trap" => {
                if let Some(t) = sfield("trap") {
                    *self.traps.entry(t).or_insert(0) += 1;
                }
            }
            "temporal-trap" => {
                if let Some(t) = sfield("temporal") {
                    *self.temporal_traps.entry(t).or_insert(0) += 1;
                }
            }
            "quarantine" => match bfield("drained") {
                Some(true) => self.quarantine_drains += 1,
                Some(false) => self.quarantine_enters += 1,
                None => {}
            },
            _ => {}
        }
    }

    /// Summarizes a whole JSONL document.
    #[must_use]
    pub fn from_jsonl(text: &str) -> Summary {
        Summary::from_jsonl_filtered(text, CategoryMask::ALL)
    }

    /// Summarizes a whole JSONL document, counting only the categories
    /// in `mask`.
    #[must_use]
    pub fn from_jsonl_filtered(text: &str, mask: CategoryMask) -> Summary {
        let mut s = Summary::default();
        for line in text.lines() {
            s.add_line_filtered(line, mask);
        }
        s
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} events", self.total)?;
        if self.malformed_lines > 0 {
            writeln!(f, "  ({} malformed lines skipped)", self.malformed_lines)?;
        }
        writeln!(f, "by kind:")?;
        for (k, n) in &self.by_kind {
            writeln!(f, "  {k:<10} {n}")?;
        }
        writeln!(f, "by function:")?;
        for (func, n) in &self.by_func {
            write!(f, "  {func:<16} {n:<8}")?;
            let mut first = true;
            for ((fu, kind), kn) in &self.by_func_kind {
                if fu == func {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{kind}={kn}")?;
                    first = false;
                }
            }
            writeln!(f)?;
        }
        if !self.promotes.is_empty() {
            write!(f, "promotes:")?;
            for (k, n) in &self.promotes {
                write!(f, " {k}={n}")?;
            }
            write!(f, "; narrowing:")?;
            for (k, n) in &self.narrowings {
                write!(f, " {k}={n}")?;
            }
            writeln!(f)?;
        }
        if self.metadata_fetches > 0 {
            writeln!(f, "metadata words fetched: {}", self.metadata_fetches)?;
        }
        if self.cache_hits + self.cache_misses > 0 {
            writeln!(
                f,
                "metadata cache: {} hits, {} misses",
                self.cache_hits, self.cache_misses
            )?;
        }
        if self.by_kind.contains_key("check") {
            writeln!(f, "checks failed: {}", self.checks_failed)?;
        }
        if self.mac_failures > 0 {
            writeln!(f, "MAC failures: {}", self.mac_failures)?;
        }
        if !self.traps.is_empty() {
            write!(f, "traps:")?;
            for (k, n) in &self.traps {
                write!(f, " {k}={n}")?;
            }
            writeln!(f)?;
        }
        if !self.temporal_traps.is_empty() {
            write!(f, "temporal violations:")?;
            for (k, n) in &self.temporal_traps {
                write!(f, " {k}={n}")?;
            }
            writeln!(f)?;
        }
        if self.quarantine_enters + self.quarantine_drains > 0 {
            writeln!(
                f,
                "quarantine: {} entered, {} drained",
                self.quarantine_enters, self.quarantine_drains
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NarrowOutcome, PromoteOutcome, Region, Scheme, TrapKind};
    use crate::TraceLog;

    fn sample_log() -> TraceLog {
        let funcs = vec!["main".to_string(), "f".to_string()];
        let events = vec![
            TraceEvent {
                seq: 0,
                func: 0,
                kind: EventKind::Alloc {
                    addr: 0x2000,
                    size: 24,
                    scheme: Scheme::LocalOffset,
                    region: Region::Heap,
                },
            },
            TraceEvent {
                seq: 1,
                func: 1,
                kind: EventKind::Promote {
                    ptr: 0x2014,
                    kind: PromoteOutcome::Valid,
                    narrowing: NarrowOutcome::Narrowed,
                    sub_index: 5,
                    lower: 0x2014,
                    upper: 0x2018,
                    fetches: 2,
                    misses: 1,
                },
            },
            TraceEvent {
                seq: 2,
                func: 1,
                kind: EventKind::Cache {
                    addr: 0x2020,
                    hit: false,
                },
            },
            TraceEvent {
                seq: 3,
                func: 1,
                kind: EventKind::Check {
                    addr: 0x2014,
                    size: 8,
                    lower: 0x2014,
                    upper: 0x2018,
                    passed: false,
                },
            },
            TraceEvent {
                seq: 4,
                func: 1,
                kind: EventKind::Trap {
                    kind: TrapKind::Bounds,
                    addr: 0x2014,
                    size: 8,
                    lower: 0x2014,
                    upper: 0x2018,
                },
            },
        ];
        TraceLog {
            events,
            dropped: 0,
            sampled_out: 0,
            funcs,
        }
    }

    #[test]
    fn jsonl_roundtrips_through_summarizer() {
        let log = sample_log();
        let mut direct = Summary::default();
        direct.add_log(&log);
        let parsed = Summary::from_jsonl(&log.to_jsonl());
        assert_eq!(parsed, direct);
        assert_eq!(parsed.malformed_lines, 0);
        assert_eq!(parsed.total, 5);
        assert_eq!(parsed.checks_failed, 1);
        assert_eq!(parsed.cache_misses, 1);
        assert_eq!(parsed.traps.get("bounds"), Some(&1));
        assert_eq!(parsed.by_func.get("f"), Some(&4));
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let mut s = Summary::default();
        s.add_line("not json");
        s.add_line("");
        s.add_line("{\"seq\":0,\"func\":\"main\",\"kind\":\"free\",\"addr\":\"0x10\"}");
        assert_eq!(s.malformed_lines, 1);
        assert_eq!(s.total, 1);
    }

    #[test]
    fn escaped_strings_parse_back() {
        let obj =
            parse_flat_object(r#"{"a":"q\"b\\s\/n\nr\rt\tb\bf\fu\u0001\u00e9","b":1}"#).unwrap();
        assert_eq!(
            obj.get("a").unwrap().as_str(),
            Some("q\"b\\s/n\nr\rt\tb\u{8}f\u{c}u\u{1}\u{e9}")
        );
        assert_eq!(obj.get("b").unwrap().as_u64(), Some(1));
        for bad in [r#"{"a":"\x"}"#, r#"{"a":"\u00"}"#, r#"{"a":"\u+01a"}"#] {
            assert!(parse_flat_object(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn hex_values_parse_back() {
        let obj = parse_flat_object("{\"a\":\"0x2f\",\"b\":7,\"c\":true}").unwrap();
        assert_eq!(obj.get("a").unwrap().as_u64(), Some(0x2f));
        assert_eq!(obj.get("b").unwrap().as_u64(), Some(7));
        assert_eq!(obj.get("c").unwrap().as_bool(), Some(true));
    }
}
