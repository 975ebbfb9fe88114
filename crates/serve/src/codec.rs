//! The wire codec of the model endpoints: request bodies decode straight
//! into the flat row-major buffer a [`Matrix`] owns, and replies encode
//! straight into one pre-sized byte buffer — no [`serde::Value`] tree, no
//! `Vec<Vec<f64>>`, no `String` per float.
//!
//! Both directions ride the vendored `serde_json`: decoding through its
//! pull [`Reader`] (one grammar, number rule and nesting cap with
//! `serde_json::from_str`), encoding through its [`write_f64`] and
//! [`write_string`] (one float formatter with `serde_json::to_string`).
//! So a body is accepted exactly when the field rules of a derived
//! `{rows: Vec<Vec<f64>>, group: Option<Vec<u8>>}` (or
//! `{rows, eps: f64, delta: Option<f64>}`) accept it — unknown keys are
//! ignored, the first of duplicate keys wins, `null` reads as NaN in rows
//! and as absent for the optional fields — and a reply holds the same
//! bytes a derived response struct would serialize to.
//!
//! A reply is never written with a non-finite number (the tree writer
//! would render it as `null`): the encoders report the first offending
//! row instead, and the server answers that request alone with a 400.

use ifair::core::{CertMethod, Certificate};
use ifair::linalg::Matrix;
use serde_json::{write_f64, write_string, Error, Reader, RowsShape};

/// Feature rows as they arrived: a flat row-major buffer plus its shape.
/// The buffer is only a matrix when `shape.rectangular` and
/// `shape.width > 0`; [`Rows::into_matrix`] checks both.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// Every element of every row, row after row.
    pub data: Vec<f64>,
    /// Row count, first-row width, and whether all rows share it.
    pub shape: RowsShape,
}

impl Rows {
    /// The rows as a matrix, or `None` when there are no rows, the rows
    /// are empty, or they are ragged.
    pub fn into_matrix(self) -> Option<Matrix> {
        let RowsShape {
            rows,
            width,
            rectangular,
        } = self.shape;
        if rows == 0 || width == 0 || !rectangular {
            return None;
        }
        Matrix::from_vec(rows, width, self.data).ok()
    }
}

/// Body of `POST /v1/models/{name}/transform` and `.../predict`.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsRequest {
    /// Feature rows, all of the model's input width.
    pub rows: Rows,
    /// Optional per-row protected-group membership (0/1); only the LFR
    /// stage reads it. `None` when absent or `null`.
    pub group: Option<Vec<u8>>,
}

/// Body of `POST /v1/models/{name}/certify`.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyRequest {
    /// Feature rows to certify, all of the model's input width.
    pub rows: Rows,
    /// L∞ perturbation radius each row is certified against (`null` reads
    /// as NaN, which radius validation rejects).
    pub eps: f64,
    /// Optional threshold on each row's certified delta.
    pub delta: Option<f64>,
}

/// Decodes a transform/predict body.
pub fn decode_rows_request(body: &str) -> Result<RowsRequest, Error> {
    let mut rows = None;
    let mut group = None;
    let mut reader = Reader::new(body);
    reader.object(|key, r| match key {
        "rows" if rows.is_none() => {
            rows = Some(read_rows(r)?);
            Ok(())
        }
        "group" if group.is_none() => {
            group = Some(read_group(r)?);
            Ok(())
        }
        _ => r.skip(),
    })?;
    reader.end()?;
    Ok(RowsRequest {
        rows: rows.ok_or_else(|| missing("rows"))?,
        group: group.flatten(),
    })
}

/// Decodes a certify body.
pub fn decode_certify_request(body: &str) -> Result<CertifyRequest, Error> {
    let mut rows = None;
    let mut eps = None;
    let mut delta = None;
    let mut reader = Reader::new(body);
    reader.object(|key, r| match key {
        "rows" if rows.is_none() => {
            rows = Some(read_rows(r)?);
            Ok(())
        }
        "eps" if eps.is_none() => {
            eps = Some(r.value()?);
            Ok(())
        }
        "delta" if delta.is_none() => {
            delta = Some(r.value()?);
            Ok(())
        }
        _ => r.skip(),
    })?;
    reader.end()?;
    Ok(CertifyRequest {
        rows: rows.ok_or_else(|| missing("rows"))?,
        eps: eps.ok_or_else(|| missing("eps"))?,
        delta: delta.flatten(),
    })
}

fn read_rows(r: &mut Reader<'_>) -> Result<Rows, Error> {
    let mut data = Vec::new();
    let shape = r.f64_rows(&mut data)?;
    Ok(Rows { data, shape })
}

fn read_group(r: &mut Reader<'_>) -> Result<Option<Vec<u8>>, Error> {
    if r.null()? {
        return Ok(None);
    }
    let mut group = Vec::new();
    r.array(|r| {
        group.push(r.value()?);
        Ok(())
    })?;
    Ok(Some(group))
}

fn missing(field: &str) -> Error {
    serde::Error::msg(format!("missing field `{field}`")).into()
}

/// A reply that would have carried a non-finite number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFinite {
    /// Index, within the request, of the first row whose output is NaN or
    /// infinite.
    pub row: usize,
}

impl std::fmt::Display for NonFinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row {}: input magnitudes overflow the model (its output is not finite)",
            self.row
        )
    }
}

/// Bytes a typical float takes in a reply, separator included; replies
/// are pre-sized from it.
const FLOAT_BYTES: usize = 24;

/// Encodes `{"model":…,"rows":[[…],…]}`.
pub fn encode_transform(model: &str, rows: &Matrix) -> Result<Vec<u8>, NonFinite> {
    let mut out = reply_buffer(model, rows.len() * FLOAT_BYTES + rows.rows() * 2);
    out.push_str(",\"rows\":[");
    for (i, row) in rows.row_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        floats(&mut out, row, |_| i)?;
        out.push(']');
    }
    out.push_str("]}");
    Ok(out.into_bytes())
}

/// Encodes `{"model":…,"scores":[…],"decisions":[…]}`.
pub fn encode_predict(
    model: &str,
    scores: &[f64],
    decisions: &[f64],
) -> Result<Vec<u8>, NonFinite> {
    let mut out = reply_buffer(model, (scores.len() + decisions.len()) * FLOAT_BYTES);
    out.push_str(",\"scores\":[");
    floats(&mut out, scores, |i| i)?;
    out.push_str("],\"decisions\":[");
    floats(&mut out, decisions, |i| i)?;
    out.push_str("]}");
    Ok(out.into_bytes())
}

/// Encodes `{"model":…,"eps":…,"deltas":[…],"methods":[…],"certified":…}`,
/// where `certified` holds each `delta <= threshold` verdict, or `null`
/// without a threshold. `eps` is the validated (finite) request radius.
pub fn encode_certify(
    model: &str,
    eps: f64,
    certs: &[Certificate],
    threshold: Option<f64>,
) -> Result<Vec<u8>, NonFinite> {
    let mut out = reply_buffer(model, certs.len() * (FLOAT_BYTES + 24));
    out.push_str(",\"eps\":");
    write_f64(&mut out, eps);
    out.push_str(",\"deltas\":[");
    for (i, cert) in certs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !cert.delta.is_finite() {
            return Err(NonFinite { row: i });
        }
        write_f64(&mut out, cert.delta);
    }
    out.push_str("],\"methods\":[");
    for (i, cert) in certs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(match cert.method {
            CertMethod::IntervalBound => "\"IntervalBound\"",
            CertMethod::GlobalDiameter => "\"GlobalDiameter\"",
        });
    }
    out.push_str("],\"certified\":");
    match threshold {
        None => out.push_str("null"),
        Some(thr) => {
            out.push('[');
            for (i, cert) in certs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(if cert.delta <= thr { "true" } else { "false" });
            }
            out.push(']');
        }
    }
    out.push('}');
    Ok(out.into_bytes())
}

/// A reply buffer sized for `payload` more bytes, opened with the model
/// field.
fn reply_buffer(model: &str, payload: usize) -> String {
    let mut out = String::with_capacity(64 + 2 * model.len() + payload);
    out.push_str("{\"model\":");
    write_string(&mut out, model);
    out
}

/// Writes `values` comma-separated; a non-finite one fails with the
/// request row `row_of` maps its index to.
fn floats(
    out: &mut String,
    values: &[f64],
    row_of: impl Fn(usize) -> usize,
) -> Result<(), NonFinite> {
    for (j, &v) in values.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        if !v.is_finite() {
            return Err(NonFinite { row: row_of(j) });
        }
        write_f64(out, v);
    }
    Ok(())
}
