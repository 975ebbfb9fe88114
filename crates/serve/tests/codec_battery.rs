//! Differential battery for the direct wire codec (`ifair_serve::codec`).
//!
//! The oracle is the tree path the codec replaced: `serde_json::from_str`
//! into derived request structs (a `Value` tree, then the derive's field
//! rules), and `serde_json::to_string` of derived response structs. Over
//! seeded generated bodies the decoder must accept exactly what the oracle
//! accepts and yield bit-identical `f64`s; over seeded random `f64` bit
//! patterns the encoder must write the oracle's bytes.

use ifair::core::{CertMethod, Certificate};
use ifair::linalg::Matrix;
use ifair_serve::codec;
use serde::{Deserialize, Serialize};

/// The derived request body `/transform` and `/predict` decoded before.
#[derive(Debug, Deserialize)]
struct OracleRows {
    rows: Vec<Vec<f64>>,
    #[serde(default)]
    group: Option<Vec<u8>>,
}

/// The derived request body `/certify` decoded before.
#[derive(Debug, Deserialize)]
struct OracleCertify {
    rows: Vec<Vec<f64>>,
    eps: f64,
    #[serde(default)]
    delta: Option<f64>,
}

#[derive(Serialize)]
struct OracleTransformReply {
    model: String,
    rows: Vec<Vec<f64>>,
}

#[derive(Serialize)]
struct OraclePredictReply {
    model: String,
    scores: Vec<f64>,
    decisions: Vec<f64>,
}

#[derive(Serialize)]
struct OracleCertifyReply {
    model: String,
    eps: f64,
    deltas: Vec<f64>,
    methods: Vec<CertMethod>,
    certified: Option<Vec<bool>>,
}

/// SplitMix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const SEEDS: [u64; 4] = [1, 2, 3, 2019];

// ------------------------------------------------------------ body generator

/// Optional whitespace between tokens.
fn ws(rng: &mut Rng) -> &'static str {
    match rng.below(8) {
        0 => " ",
        1 => "\n\t",
        2 => "\r\n  ",
        _ => "",
    }
}

/// A number token: mostly valid JSON, sometimes a token only the shared
/// number rule decides (`01`, `1.`, `1e`, `--1`, `1-2`).
fn number(rng: &mut Rng) -> String {
    match rng.below(40) {
        0 => rng
            .pick(&["0", "-0", "1", "-7", "42", "9007199254740993"])
            .to_string(),
        1 => rng
            .pick(&[
                "1e308",
                "-1e308",
                "1e309",
                "1.7976931348623157e308",
                "1e-400",
            ])
            .to_string(),
        2 => rng
            .pick(&[
                "5e-324",
                "2.2250738585072014e-308",
                "4.9e-324",
                "-0.0",
                "0e0",
            ])
            .to_string(),
        3 => "123456789012345678901234567890123456789012345".to_string(),
        4 if rng.chance(2) => rng
            .pick(&["01", "1.", "1e", "--1", "1-2", "1.5e+3", "2E-2", "-", "1e+"])
            .to_string(),
        5 => format!("{}", rng.below(1000)),
        6 => {
            let f = f64::from_bits(rng.next());
            if f.is_finite() {
                format!("{f:e}")
            } else {
                "0.5".to_string()
            }
        }
        _ => {
            let f = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0;
            format!("{f}")
        }
    }
}

/// Any JSON value, `depth` levels deep at most.
fn any_value(rng: &mut Rng, depth: usize) -> String {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => "null".to_string(),
        1 => rng.pick(&["true", "false"]).to_string(),
        2 => number(rng),
        3 => rng
            .pick(&[r#""x""#, r#""esc\"aped\\ é 😀""#, r#""☃""#, r#""""#])
            .to_string(),
        4 => "[]".to_string(),
        5 => {
            let n = rng.below(4);
            let items: Vec<String> = (0..n).map(|_| any_value(rng, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let n = rng.below(3);
            let items: Vec<String> = (0..n)
                .map(|i| format!("\"k{i}\":{}", any_value(rng, depth - 1)))
                .collect();
            format!("{{{}}}", items.join(","))
        }
    }
}

/// A row element: a number, or now and then something else.
fn element(rng: &mut Rng) -> String {
    match rng.below(120) {
        0 => "null".to_string(),
        1 => "true".to_string(),
        2 => r#""1.0""#.to_string(),
        3 => "[1.0]".to_string(),
        _ => number(rng),
    }
}

/// A `rows` value: rectangular mostly, sometimes ragged, empty or not an
/// array of arrays.
fn rows_value(rng: &mut Rng) -> String {
    match rng.below(30) {
        0 => "[]".to_string(),
        1 => "[[]]".to_string(),
        2 => "null".to_string(),
        3 => "[1.0,2.0]".to_string(),
        4 => r#""rows""#.to_string(),
        _ => {
            let n = 1 + rng.below(5);
            let width = 1 + rng.below(4);
            let rows: Vec<String> = (0..n)
                .map(|_| {
                    let w = if rng.chance(12) { rng.below(5) } else { width };
                    let items: Vec<String> = (0..w)
                        .map(|_| format!("{}{}{}", ws(rng), element(rng), ws(rng)))
                        .collect();
                    format!("[{}]", items.join(","))
                })
                .collect();
            format!("[{}{}]", rows.join(&format!(",{}", ws(rng))), ws(rng))
        }
    }
}

fn group_value(rng: &mut Rng) -> String {
    match rng.below(24) {
        0 => "null".to_string(),
        1 => r#"[1, 2]"#.to_string(),
        2 => r#"[256]"#.to_string(),
        3 => r#"[1.0, -0, 1e0, 0.0]"#.to_string(),
        4 => r#"[0.5]"#.to_string(),
        5 => r#""01""#.to_string(),
        6 => "[null]".to_string(),
        _ => {
            let items: Vec<String> = (0..1 + rng.below(5))
                .map(|_| rng.pick(&["0", "1"]).to_string())
                .collect();
            format!("[{}]", items.join(","))
        }
    }
}

fn eps_value(rng: &mut Rng) -> String {
    match rng.below(16) {
        0 => "null".to_string(),
        1 => r#""0.1""#.to_string(),
        2 => "[0.1]".to_string(),
        _ => number(rng),
    }
}

/// A body field: its key and a generator of its values.
type Field = (&'static str, fn(&mut Rng) -> String);

/// One object body with the given required and optional fields, plus
/// unknown keys, duplicates, escaped key spellings, shuffled order and
/// random whitespace.
fn body(rng: &mut Rng, fields: &[Field]) -> String {
    let mut entries: Vec<(String, String)> = Vec::new();
    for &(name, gen) in fields {
        if rng.chance(12) {
            continue; // absent
        }
        let key = if rng.chance(10) {
            // `s` is `s`, `e` is `e`: the same key, escaped.
            name.replacen('s', "\\u0073", 1).replacen('e', "\\u0065", 1)
        } else {
            name.to_string()
        };
        entries.push((key.clone(), gen(rng)));
        if rng.chance(8) {
            entries.push((key, gen(rng)));
        }
    }
    for i in 0..rng.below(3) {
        entries.push((format!("extra{i}"), any_value(rng, 3)));
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.below(i + 1));
    }
    let fields: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}\"{k}\"{}:{}{v}{}", ws(rng), ws(rng), ws(rng), ws(rng)))
        .collect();
    format!("{}{{{}}}{}", ws(rng), fields.join(","), ws(rng))
}

/// Corrupts a body: truncation, a replaced or inserted ASCII byte, or a
/// trailing token.
fn corrupt(rng: &mut Rng, body: &str) -> String {
    let cut = body
        .char_indices()
        .map(|(i, _)| i)
        .nth(rng.below(body.chars().count().max(1)))
        .unwrap_or(0);
    let junk = rng.pick(&["]", "}", ",", ":", "\"", "x", "[", "{", " ", "0", "-", "."]);
    match rng.below(4) {
        0 => body[..cut].to_string(),
        1 => format!("{}{junk}{}", &body[..cut], &body[cut..]),
        2 => {
            let next = body[cut..].chars().next().map_or(0, char::len_utf8);
            format!("{}{junk}{}", &body[..cut], &body[cut + next..])
        }
        _ => format!("{body}{junk}"),
    }
}

// ------------------------------------------------------------------ checkers

fn bits(rows: &[Vec<f64>]) -> Vec<u64> {
    rows.iter().flatten().map(|v| v.to_bits()).collect()
}

fn check_rows(decoded: &codec::Rows, oracle: &[Vec<f64>], body: &str) {
    let shape = decoded.shape;
    assert_eq!(shape.rows, oracle.len(), "{body}");
    assert_eq!(shape.width, oracle.first().map_or(0, Vec::len), "{body}");
    let rectangular = oracle.iter().all(|r| r.len() == shape.width);
    assert_eq!(shape.rectangular, rectangular, "{body}");
    let decoded_bits: Vec<u64> = decoded.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(decoded_bits, bits(oracle), "{body}");
}

fn check_rows_request(body: &str) -> bool {
    let oracle = serde_json::from_str::<OracleRows>(body);
    let decoded = codec::decode_rows_request(body);
    match (&oracle, &decoded) {
        (Ok(o), Ok(d)) => {
            check_rows(&d.rows, &o.rows, body);
            assert_eq!(d.group, o.group, "{body}");
            true
        }
        (Err(_), Err(_)) => false,
        _ => panic!("oracle {oracle:?} but codec {decoded:?} on {body:?}"),
    }
}

fn check_certify_request(body: &str) -> bool {
    let oracle = serde_json::from_str::<OracleCertify>(body);
    let decoded = codec::decode_certify_request(body);
    match (&oracle, &decoded) {
        (Ok(o), Ok(d)) => {
            check_rows(&d.rows, &o.rows, body);
            assert_eq!(d.eps.to_bits(), o.eps.to_bits(), "{body}");
            assert_eq!(
                d.delta.map(f64::to_bits),
                o.delta.map(f64::to_bits),
                "{body}"
            );
            true
        }
        (Err(_), Err(_)) => false,
        _ => panic!("oracle {oracle:?} but codec {decoded:?} on {body:?}"),
    }
}

// --------------------------------------------------------------------- tests

#[test]
fn decoder_matches_the_tree_path_on_generated_bodies() {
    let rows_fields: [Field; 2] = [("rows", rows_value), ("group", group_value)];
    let certify_fields: [Field; 3] = [
        ("rows", rows_value),
        ("eps", eps_value),
        ("delta", eps_value),
    ];
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..3000 {
            let rows_body = body(&mut rng, &rows_fields);
            let certify_body = body(&mut rng, &certify_fields);
            for b in [&rows_body, &corrupt(&mut rng, &rows_body)] {
                if check_rows_request(b) {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
            for b in [&certify_body, &corrupt(&mut rng, &certify_body)] {
                if check_certify_request(b) {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        // Both outcomes are exercised in bulk, or the battery proves little.
        assert!(accepted > 2000 && rejected > 2000, "{accepted}/{rejected}");
    }
}

#[test]
fn decoder_matches_the_tree_path_on_named_edge_cases() {
    let accepted = [
        r#"{"rows":[[1,2],[3,4]]}"#,
        r#"  {"rows" : [ [ -0 , 1e308 ] ] , "group" : null }  "#,
        r#"{"group":[1,0],"rows":[[1.5],[2.5]]}"#,
        r#"{"rows":[[1]],"rows":"ignored"}"#,
        r#"{"rows":[[1]],"group":[1],"group":"ignored"}"#,
        r#"{"rows":[[1]],"unknown":{"deep":[[[{}]]]}}"#,
        r#"{"rows":[[null, 1e309, -1e309, 1e-400]]}"#,
        r#"{"rows":[]}"#,
        r#"{"rows":[[]]}"#,
        r#"{"rows":[[1],[2,3]]}"#,
        r#"{"rows":[[01, 1., 123456789012345678901234567890123456789012345]]}"#,
    ];
    for body in accepted {
        assert!(check_rows_request(body), "{body}");
    }
    let rejected = [
        "",
        "null",
        "[]",
        "{}",
        r#"{"rows":null}"#,
        r#"{"rows":[1]}"#,
        r#"{"rows":[[true]]}"#,
        r#"{"rows":[["1"]]}"#,
        r#"{"rows":"x","rows":[[1]]}"#,
        r#"{"rows":[[1]],"group":[2e0,256]}"#,
        r#"{"rows":[[1]],"group":[0.5]}"#,
        r#"{"rows":[[1]],}"#,
        r#"{"rows":[[1,]]}"#,
        r#"{"rows":[[1]]} x"#,
        r#"{"rows":[[1]],"x":[1 2]}"#,
        r#"{"rows":[[+1]]}"#,
        r#"{"rows":[[.5]]}"#,
        r#"{"rows":[[1e]]}"#,
        r#"{"rows":[[-]]}"#,
        r#"{"rows":[[1]]"#,
        r#"{"rows":[[1]],"x":"\ud800"}"#,
    ];
    for body in rejected {
        assert!(!check_rows_request(body), "{body}");
    }
    // -0 is an integer token: it decodes to +0.0, as the i128 path does.
    let r = codec::decode_rows_request(r#"{"rows":[[-0, -0.0]]}"#).unwrap();
    assert_eq!(r.rows.data[0].to_bits(), 0.0f64.to_bits());
    assert_eq!(r.rows.data[1].to_bits(), (-0.0f64).to_bits());

    assert!(check_certify_request(r#"{"eps":0.1,"rows":[[1]]}"#));
    assert!(check_certify_request(
        r#"{"rows":[[1]],"eps":null,"delta":null}"#
    ));
    assert!(check_certify_request(
        r#"{"rows":[[1]],"eps":1,"eps":"x","delta":2}"#
    ));
    assert!(!check_certify_request(r#"{"rows":[[1]]}"#));
    assert!(!check_certify_request(r#"{"rows":[[1]],"eps":"0.1"}"#));
    assert!(!check_certify_request(
        r#"{"rows":[[1]],"eps":0.1,"delta":[0.1]}"#
    ));
}

#[test]
fn nesting_past_the_cap_is_rejected_by_both_paths() {
    for depth in [127, 128, 129, 10_000] {
        let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        for body in [
            format!(r#"{{"rows":[[1]],"x":{deep}}}"#),
            format!(r#"{{"rows":{deep}}}"#),
            deep.clone(),
        ] {
            check_rows_request(&body);
            check_certify_request(&body);
        }
    }
}

/// The float form the tree writer used before the shared helper: std's
/// `{}` plus `.0` on integral output.
fn oracle_float(f: f64) -> String {
    let s = format!("{f}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        s + ".0"
    }
}

fn edge_floats() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        2.0f64.powi(53),
        2.0f64.powi(53) + 2.0,
        1e15,
        1e16,
        1e17,
        1e21,
        1e22,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::EPSILON,
        0.1,
        1.0 / 3.0,
        123456.789,
        -9.5e-10,
    ]
}

fn random_finite(rng: &mut Rng) -> f64 {
    loop {
        let f = f64::from_bits(rng.next());
        if f.is_finite() {
            return f;
        }
    }
}

#[test]
fn write_f64_matches_the_old_float_writer() {
    let mut out = String::new();
    let mut check = |f: f64| {
        out.clear();
        serde_json::write_f64(&mut out, f);
        assert_eq!(out, oracle_float(f), "bits {:#x}", f.to_bits());
        assert_eq!(
            serde_json::from_str::<f64>(&out).unwrap().to_bits(),
            f.to_bits()
        );
    };
    for f in edge_floats() {
        check(f);
    }
    for seed in SEEDS {
        let mut rng = Rng(seed);
        for _ in 0..20_000 {
            check(random_finite(&mut rng));
        }
    }
}

const MODEL_NAMES: [&str; 3] = ["bench", "m-1.v2", "quote\"back\\slash\nctl\u{1}☃"];

#[test]
fn encoders_write_the_derived_replies_bytes() {
    for seed in SEEDS {
        let mut rng = Rng(seed);
        for round in 0..200 {
            let model = MODEL_NAMES[round % MODEL_NAMES.len()];
            let (n, width) = (1 + rng.below(6), 1 + rng.below(5));
            let edges = edge_floats();
            let draw = |rng: &mut Rng| {
                if rng.chance(4) {
                    edges[rng.below(edges.len())]
                } else {
                    random_finite(rng)
                }
            };
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..width).map(|_| draw(&mut rng)).collect())
                .collect();
            let direct =
                codec::encode_transform(model, &Matrix::from_rows(rows.clone()).unwrap()).unwrap();
            let tree = serde_json::to_string(&OracleTransformReply {
                model: model.to_string(),
                rows,
            })
            .unwrap();
            assert_eq!(String::from_utf8(direct).unwrap(), tree);

            let scores: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
            let decisions: Vec<f64> = (0..n).map(|_| (rng.below(2)) as f64).collect();
            let direct = codec::encode_predict(model, &scores, &decisions).unwrap();
            let tree = serde_json::to_string(&OraclePredictReply {
                model: model.to_string(),
                scores,
                decisions,
            })
            .unwrap();
            assert_eq!(String::from_utf8(direct).unwrap(), tree);

            let eps = draw(&mut rng).abs();
            let certs: Vec<Certificate> = (0..n)
                .map(|_| Certificate {
                    eps,
                    delta: draw(&mut rng).abs(),
                    method: if rng.chance(2) {
                        CertMethod::IntervalBound
                    } else {
                        CertMethod::GlobalDiameter
                    },
                })
                .collect();
            let threshold = (!rng.chance(3)).then(|| draw(&mut rng).abs());
            let direct = codec::encode_certify(model, eps, &certs, threshold).unwrap();
            let tree = serde_json::to_string(&OracleCertifyReply {
                model: model.to_string(),
                eps,
                deltas: certs.iter().map(|c| c.delta).collect(),
                methods: certs.iter().map(|c| c.method).collect(),
                certified: threshold.map(|t| certs.iter().map(|c| c.delta <= t).collect()),
            })
            .unwrap();
            assert_eq!(String::from_utf8(direct).unwrap(), tree);
        }
    }
}

#[test]
fn encoders_name_the_first_non_finite_row() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut rows = Matrix::from_rows(vec![vec![0.5, 1.0]; 4]).unwrap();
        rows.set(2, 1, bad);
        rows.set(3, 0, bad);
        let err = codec::encode_transform("m", &rows).unwrap_err();
        assert_eq!(err.row, 2);
        assert!(err.to_string().contains("row 2"), "{err}");
        assert!(err.to_string().contains("overflow"), "{err}");

        let err = codec::encode_predict("m", &[0.1, 0.2], &[1.0, bad]).unwrap_err();
        assert_eq!(err.row, 1);
        let err = codec::encode_predict("m", &[bad, 0.2], &[1.0, 0.0]).unwrap_err();
        assert_eq!(err.row, 0);

        let certs = [0.1, bad].map(|delta| Certificate {
            eps: 0.1,
            delta,
            method: CertMethod::IntervalBound,
        });
        let err = codec::encode_certify("m", 0.1, &certs, Some(0.5)).unwrap_err();
        assert_eq!(err.row, 1);
    }
}
