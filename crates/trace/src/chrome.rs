//! Chrome-trace (Trace Event Format) export.
//!
//! Serializes [`RankTrace`]s as the JSON-object form
//! `{"traceEvents":[...]}` understood by `chrome://tracing` and Perfetto:
//! spans become `ph:"B"`/`ph:"E"` duration events, instants become
//! `ph:"i"` with thread scope, one rank per `tid`. Everything is
//! hand-serialized (one event per line, fields in fixed order) so
//! *normalized* exports — timestamps zeroed — are byte-identical across
//! same-seed runs and can be checked in as golden snapshots.
//!
//! [`validate`] is a minimal self-contained JSON parser checking exported
//! (or foreign) traces against the event-schema subset we rely on:
//! required keys, known phases, balanced `B`/`E` per thread.

use crate::{Event, EventData, RankTrace, Span};
use std::fmt::Write as _;

/// Microseconds with the sub-microsecond remainder, as Chrome's `ts` field.
fn fmt_ts(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000)
}

#[allow(clippy::too_many_arguments)]
fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ph: char,
    ts_ns: u64,
    tid: usize,
    scope: Option<char>,
    args: &[(&str, String)],
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"rdm\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{tid}",
        fmt_ts(ts_ns)
    );
    if let Some(s) = scope {
        let _ = write!(out, ",\"s\":\"{s}\"");
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push_str("}}");
}

/// A span's `args`. The kernel spans' lane `width` names the host's SIMD
/// width, not the schedule, so normalized exports leave it out.
fn span_args(s: Span, normalized: bool) -> Vec<(&'static str, String)> {
    let mut args = match s {
        Span::Epoch { idx } => vec![("idx", idx.to_string())],
        Span::Redistribute {
            from,
            to,
            chunks,
            kind,
        } => vec![
            ("from", format!("\"{}\"", from.name())),
            ("to", format!("\"{}\"", to.name())),
            ("chunks", chunks.to_string()),
            ("kind", format!("\"{}\"", kind.name())),
        ],
        Span::Spmm {
            rows, cols, nnz, ..
        } => vec![
            ("rows", rows.to_string()),
            ("cols", cols.to_string()),
            ("nnz", nnz.to_string()),
        ],
        Span::Gemm { m, n, k, .. } => vec![
            ("m", m.to_string()),
            ("n", n.to_string()),
            ("k", k.to_string()),
        ],
        Span::AllReduce { elems } => vec![("elems", elems.to_string())],
        Span::Batch { idx, size } => vec![("idx", idx.to_string()), ("size", size.to_string())],
        Span::Serve { client, req_id } => vec![
            ("client", client.to_string()),
            ("req_id", req_id.to_string()),
        ],
    };
    if !normalized {
        if let Span::Spmm { width, .. } | Span::Gemm { width, .. } = s {
            args.push(("width", width.to_string()));
        }
    }
    args
}

/// Export traces as Chrome-trace JSON. With `normalized` set, all
/// timestamps are zeroed and the kernel spans' lane width is dropped, so
/// same-seed runs serialize byte-identically on any host (the event
/// *sequence* is deterministic; wall-clock stamps and SIMD width are not).
pub fn to_chrome_json(traces: &[RankTrace], normalized: bool) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for t in traces {
        push_event(
            &mut out,
            &mut first,
            "thread_name",
            'M',
            0,
            t.rank,
            None,
            &[("name", format!("\"rank {}\"", t.rank))],
        );
    }
    for t in traces {
        let mut open: Vec<&'static str> = Vec::new();
        for &Event { seq, ts_ns, data } in &t.events {
            let ts = if normalized { 0 } else { ts_ns };
            let seq_arg = ("seq", seq.to_string());
            match data {
                EventData::Begin(s) => {
                    open.push(s.name());
                    let mut args = span_args(s, normalized);
                    args.push(seq_arg);
                    push_event(&mut out, &mut first, s.name(), 'B', ts, t.rank, None, &args);
                }
                EventData::End => {
                    let name = open.pop().unwrap_or("span");
                    push_event(
                        &mut out,
                        &mut first,
                        name,
                        'E',
                        ts,
                        t.rank,
                        None,
                        &[seq_arg],
                    );
                }
                EventData::Collective {
                    kind,
                    peer,
                    bytes,
                    dense_bytes,
                    msg_seq,
                } => push_event(
                    &mut out,
                    &mut first,
                    "send",
                    'i',
                    ts,
                    t.rank,
                    Some('t'),
                    &[
                        ("kind", format!("\"{}\"", kind.name())),
                        ("peer", peer.to_string()),
                        ("bytes", bytes.to_string()),
                        ("dense_bytes", dense_bytes.to_string()),
                        ("msg_seq", msg_seq.to_string()),
                        seq_arg,
                    ],
                ),
                EventData::Retry {
                    peer,
                    msg_seq,
                    attempt,
                    bytes,
                    backoff_ns,
                } => push_event(
                    &mut out,
                    &mut first,
                    "retry",
                    'i',
                    ts,
                    t.rank,
                    Some('t'),
                    &[
                        ("peer", peer.to_string()),
                        ("msg_seq", msg_seq.to_string()),
                        ("attempt", attempt.to_string()),
                        ("bytes", bytes.to_string()),
                        ("backoff_ns", backoff_ns.to_string()),
                        seq_arg,
                    ],
                ),
                EventData::OverlapStrip { idx, hidden_ns } => push_event(
                    &mut out,
                    &mut first,
                    "overlap-strip",
                    'i',
                    ts,
                    t.rank,
                    Some('t'),
                    &[
                        ("idx", idx.to_string()),
                        ("hidden_ns", hidden_ns.to_string()),
                        seq_arg,
                    ],
                ),
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Schema validation: a minimal JSON parser (no dependencies) plus the
// Trace-Event-Format checks we rely on.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// The deepest container nesting [`validate`] accepts; the emitted format
/// nests four deep (document, `traceEvents`, event, `args`).
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// An object or array, one level deeper: past [`MAX_DEPTH`] an error,
    /// not a recursion without bound.
    fn nested(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = match self.peek() {
            Some(b'{') => self.object(),
            _ => self.array(),
        };
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(&format!("bad escape '\\{}'", other as char))),
                    }
                }
                Some(_) => {
                    // The run up to the next quote or escape is copied
                    // through in one step. Both are ASCII, so the run ends
                    // on a character boundary of the (valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
                    let end = self.pos + run.unwrap_or(rest.len());
                    let text = self.src.get(self.pos..end);
                    s.push_str(text.ok_or_else(|| self.err("invalid utf-8"))?);
                    self.pos = end;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON value"));
    }
    Ok(v)
}

/// Validate a Chrome-trace JSON document against the Trace Event Format
/// subset this crate emits: a `traceEvents` array of objects, each with
/// `name` (string), `ph` (one of `B`/`E`/`i`/`M`), numeric `ts`/`pid`/
/// `tid`, `s` scope on instants, and `B`/`E` balanced per `tid`.
pub fn validate(json: &str) -> Result<(), String> {
    let doc = parse(json)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\" key")?;
    let events = match events {
        Json::Arr(items) => items,
        _ => return Err("\"traceEvents\" is not an array".into()),
    };
    let mut depth: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {i}: {msg}");
        if !matches!(e, Json::Obj(_)) {
            return Err(ctx("not an object"));
        }
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string \"name\""))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing string \"ph\""))?;
        e.get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing numeric \"ts\""))?;
        e.get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing numeric \"pid\""))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing numeric \"tid\""))? as i64;
        match ph {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                if *d == 0 {
                    return Err(ctx(&format!("unbalanced \"E\" on tid {tid}")));
                }
                *d -= 1;
            }
            "i" => {
                e.get("s")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("instant event missing \"s\" scope"))?;
            }
            "M" => {}
            other => return Err(ctx(&format!("unknown phase \"{other}\""))),
        }
    }
    for (tid, d) in depth {
        if d != 0 {
            return Err(format!("tid {tid}: {d} \"B\" event(s) never closed"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Form, TraceCollective};

    fn sample() -> Vec<RankTrace> {
        vec![RankTrace {
            rank: 0,
            events: vec![
                Event {
                    seq: 0,
                    ts_ns: 1500,
                    data: EventData::Begin(Span::Redistribute {
                        from: Form::Row,
                        to: Form::Col,
                        chunks: 1,
                        kind: TraceCollective::Redistribute,
                    }),
                },
                Event {
                    seq: 1,
                    ts_ns: 2000,
                    data: EventData::Collective {
                        kind: TraceCollective::Redistribute,
                        peer: 1,
                        bytes: 256,
                        dense_bytes: 256,
                        msg_seq: 7,
                    },
                },
                Event {
                    seq: 2,
                    ts_ns: 3250,
                    data: EventData::End,
                },
            ],
        }]
    }

    /// A well-nested trace per rank, built from `ops`: each op opens a
    /// span, closes the innermost open one, or records an instant; spans
    /// left open are closed at the end.
    fn generated(ranks: usize, ops: &[u64]) -> Vec<RankTrace> {
        let trace = |rank| {
            let (mut events, mut open) = (Vec::new(), 0usize);
            let mut push = |data| {
                let seq = events.len() as u64;
                events.push(Event {
                    seq,
                    ts_ns: seq * 250,
                    data,
                });
            };
            for &op in ops {
                let x = (op >> 3) as usize;
                let data = match op % 6 {
                    0 => EventData::Begin(Span::Batch {
                        idx: x,
                        size: x % 9,
                    }),
                    1 => EventData::Begin(Span::Spmm {
                        rows: x,
                        cols: x % 7,
                        nnz: 3 * x,
                        width: 8,
                    }),
                    2 => EventData::Begin(Span::Serve {
                        client: x % 4,
                        req_id: op,
                    }),
                    3 if open > 0 => EventData::End,
                    4 => EventData::Collective {
                        kind: TraceCollective::Redistribute,
                        peer: x % 8,
                        bytes: x,
                        dense_bytes: x,
                        msg_seq: op,
                    },
                    _ => EventData::OverlapStrip {
                        idx: x % 3,
                        hidden_ns: op,
                    },
                };
                match data {
                    EventData::Begin(_) => open += 1,
                    EventData::End => open -= 1,
                    _ => {}
                }
                push(data);
            }
            (0..open).for_each(|_| push(EventData::End));
            RankTrace { rank, events }
        };
        (0..ranks).map(trace).collect()
    }

    /// Validation reads each string once: a multi-megabyte export
    /// validates in well under the bound even in a debug build (a reader
    /// that re-validates the rest of the document per character takes
    /// minutes here).
    #[test]
    fn validation_is_linear_in_the_document() {
        let ops: Vec<u64> = (0..10_000u64).map(|i| i * 2_654_435_761 % 4096).collect();
        let json = to_chrome_json(&generated(4, &ops), false);
        assert!(json.len() > 3 << 20, "only {} bytes", json.len());
        let start = std::time::Instant::now();
        assert_eq!(validate(&json), Ok(()));
        let took = start.elapsed();
        assert!(
            took.as_secs() < 20,
            "validating {} bytes took {took:?}",
            json.len()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Every export validates; arbitrary bytes, and truncations or bit
        /// flips of an export, are an error or a document, never a panic.
        #[test]
        fn corrupted_exports_never_panic(
            ops in proptest::collection::vec(0u64..4096, 0..120),
            junk in proptest::collection::vec(0u8..255, 0..64),
            cut in 0.0f64..1.0,
            flips in proptest::collection::vec((0.0f64..1.0, 0u8..8), 1..4),
        ) {
            let json = to_chrome_json(&generated(2, &ops), ops.len() % 2 == 0);
            proptest::prop_assert_eq!(validate(&json), Ok(()));
            let _ = validate(&String::from_utf8_lossy(&junk));
            let at = (cut * json.len() as f64) as usize;
            let _ = validate(&json[..at]);
            let mut bad = json.into_bytes();
            for &(where_, bit) in &flips {
                let i = ((where_ * bad.len() as f64) as usize).min(bad.len() - 1);
                bad[i] ^= 1 << bit;
            }
            let _ = validate(&String::from_utf8_lossy(&bad));
        }
    }

    #[test]
    fn exported_json_passes_validation() {
        for normalized in [false, true] {
            let json = to_chrome_json(&sample(), normalized);
            validate(&json).unwrap_or_else(|e| panic!("normalized={normalized}: {e}\n{json}"));
        }
    }

    #[test]
    fn normalization_zeroes_timestamps_only() {
        let json = to_chrome_json(&sample(), true);
        assert!(json.contains("\"ts\":0.000"));
        assert!(!json.contains("\"ts\":1.500"));
        assert!(json.contains("\"bytes\":256"));
        // End events inherit the opening span's name.
        assert_eq!(json.matches("\"name\":\"redistribute\"").count(), 2);
    }

    #[test]
    fn serving_spans_export_and_validate() {
        let traces = vec![RankTrace {
            rank: 1,
            events: vec![
                Event {
                    seq: 0,
                    ts_ns: 0,
                    data: EventData::Begin(Span::Batch { idx: 3, size: 2 }),
                },
                Event {
                    seq: 1,
                    ts_ns: 10,
                    data: EventData::Begin(Span::Serve {
                        client: 7,
                        req_id: 41,
                    }),
                },
                Event {
                    seq: 2,
                    ts_ns: 20,
                    data: EventData::End,
                },
                Event {
                    seq: 3,
                    ts_ns: 30,
                    data: EventData::End,
                },
            ],
        }];
        let json = to_chrome_json(&traces, true);
        validate(&json).unwrap();
        assert!(json.contains("\"name\":\"batch\""));
        assert!(json.contains("\"idx\":3,\"size\":2"));
        assert!(json.contains("\"name\":\"serve\""));
        assert!(json.contains("\"client\":7,\"req_id\":41"));
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        assert!(validate("{}").is_err());
        assert!(validate("{\"traceEvents\":3}").is_err());
        let missing_ph = r#"{"traceEvents":[{"name":"x","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate(missing_ph).unwrap_err().contains("ph"));
        let unbalanced = r#"{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":0,"tid":2}]}"#;
        assert!(validate(unbalanced).unwrap_err().contains("tid 2"));
        let open = r#"{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":0,"tid":1}]}"#;
        assert!(validate(open).unwrap_err().contains("never closed"));
        let bad_json = "{\"traceEvents\":[";
        assert!(validate(bad_json).is_err());
        // Nesting is bounded: an error, not a stack overflow.
        let deep = format!("{{\"traceEvents\":{}", "[".repeat(1_000_000));
        assert!(validate(&deep).unwrap_err().contains("nesting deeper than"));
        let ok = format!(
            "{{\"traceEvents\":[],\"x\":{}{}}}",
            "[".repeat(30),
            "]".repeat(30)
        );
        assert_eq!(validate(&ok), Ok(()));
    }
}
