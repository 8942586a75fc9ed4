//! The trace decoder reads files from outside the process (`repro trace
//! FILE`), so every byte sequence must come back as `Ok` or `Err` — never
//! a panic or an abort. Each case runs a line through
//! `JsonValue::parse` and, when that succeeds, `TraceRecord::from_json`.

use perigee_telemetry::{JsonValue, TraceRecord};
use proptest::prelude::*;

/// Bytes that steer random input into the parser's deeper paths:
/// structure, string escapes, number syntax and literal prefixes.
const JSON_ALPHABET: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn\\/bu \t\n";

/// Parses `line`, then rebuilds a record from whatever parsed.
fn decode(line: &str) {
    if let Ok(value) = JsonValue::parse(line) {
        let _ = TraceRecord::from_json(&value);
    }
}

/// One valid JSONL trace line, as the engine writes them.
fn valid_line() -> String {
    let mut rec = TraceRecord::new("round", "perigee-subset", 7, 42);
    rec.phases_s.push(("propagation".into(), 0.25));
    rec.phases_s.push(("rewiring".into(), 1.5e-4));
    rec.counter("gossip_pops", 1234);
    rec.counter("view_rebuilds", 1);
    rec.value("mean_lambda90_ms", 812.5);
    rec.value("p90_lambda90_ms", f64::INFINITY);
    rec.to_json()
}

#[test]
fn the_valid_line_round_trips() {
    let line = valid_line();
    let rec = TraceRecord::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
    assert_eq!(rec.to_json(), line);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (lossily made UTF-8) and strings drawn from the
    /// JSON alphabet decode to `Ok` or `Err`.
    #[test]
    fn arbitrary_strings_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        picks in proptest::collection::vec(0..JSON_ALPHABET.len(), 0..300),
    ) {
        decode(&String::from_utf8_lossy(&bytes));
        let json_ish: String = picks.iter().map(|&i| JSON_ALPHABET[i] as char).collect();
        decode(&json_ish);
    }

    /// One to four byte edits of a valid trace line — overwrite with an
    /// arbitrary or a JSON byte, delete, or duplicate — decode to `Ok`
    /// or `Err`.
    #[test]
    fn mutated_trace_lines_never_panic_the_decoder(
        edits in proptest::collection::vec((any::<u64>(), any::<u8>(), 0u8..4), 1..5),
    ) {
        let mut bytes = valid_line().into_bytes();
        for (pos, byte, kind) in edits {
            let at = (pos % bytes.len() as u64) as usize;
            match kind {
                0 => bytes[at] = byte,
                1 => bytes[at] = JSON_ALPHABET[byte as usize % JSON_ALPHABET.len()],
                2 if bytes.len() > 1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, bytes[at]),
            }
        }
        decode(&String::from_utf8_lossy(&bytes));
    }

    /// Brackets and object keys nested to any depth, up to 200,000
    /// levels, come back as values or errors — never a stack overflow.
    #[test]
    fn deep_nesting_never_aborts_the_decoder(
        depth in 0usize..200_000,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let (open, close) = if object { ("{\"a\":", "}") } else { ("[", "]") };
        let mut line = open.repeat(depth);
        line.push('1');
        if closed {
            line.push_str(&close.repeat(depth));
        }
        decode(&line);
    }
}
