//! Wire encodings of the domain types carried by the protocol: queries,
//! predicates, submission modes, outcomes and rejection reasons.
//!
//! The encodings reuse `dprov-storage`'s codec discipline: hand-rolled
//! little-endian layouts over [`Encoder`]/[`Decoder`], every field
//! length-checked, every decode returning a typed reason instead of
//! panicking. Enum variants are written as append-only tags — a tag, once
//! assigned, never changes meaning; unknown tags decode to an error, never
//! to a guess.
//!
//! Predicates are recursive, so decoding enforces [`MAX_PREDICATE_DEPTH`]
//! and bounds every collection length by the remaining payload
//! ([`Decoder::take_count`], at each item's smallest encoding) — corrupt
//! or adversarial length prefixes cannot trigger unbounded allocation or
//! stack exhaustion.

use dprov_core::error::RejectReason;
use dprov_core::processor::{
    AnsweredQuery, GroupedOutcome, GroupedRequest, QueryOutcome, QueryRequest, SubmissionMode,
};
use dprov_engine::expr::Predicate;
use dprov_engine::group::GroupByQuery;
use dprov_engine::query::{AggregateKind, Query};
use dprov_engine::value::Value;
use dprov_storage::codec::{DecodeResult, Decoder, Encoder};

use crate::error::{codes, ApiError};

/// Maximum nesting depth accepted when decoding a predicate tree.
pub const MAX_PREDICATE_DEPTH: usize = 64;

pub(crate) fn put_value(enc: &mut Encoder, value: &Value) {
    match value {
        Value::Int(v) => {
            enc.put_u8(0);
            enc.put_i64(*v);
        }
        Value::Text(s) => {
            enc.put_u8(1);
            enc.put_str(s);
        }
    }
}

pub(crate) fn take_value(dec: &mut Decoder<'_>) -> DecodeResult<Value> {
    match dec.take_u8()? {
        0 => Ok(Value::Int(dec.take_i64()?)),
        1 => Ok(Value::Text(dec.take_str()?)),
        t => Err(format!("unknown value tag {t}")),
    }
}

pub(crate) fn put_predicate(enc: &mut Encoder, predicate: &Predicate) {
    match predicate {
        Predicate::True => enc.put_u8(0),
        Predicate::Range {
            attribute,
            low,
            high,
        } => {
            enc.put_u8(1);
            enc.put_str(attribute);
            enc.put_i64(*low);
            enc.put_i64(*high);
        }
        Predicate::Equals { attribute, value } => {
            enc.put_u8(2);
            enc.put_str(attribute);
            put_value(enc, value);
        }
        Predicate::InSet { attribute, values } => {
            enc.put_u8(3);
            enc.put_str(attribute);
            enc.put_u32(values.len() as u32);
            for v in values {
                put_value(enc, v);
            }
        }
        Predicate::And(children) => {
            enc.put_u8(4);
            enc.put_u32(children.len() as u32);
            for c in children {
                put_predicate(enc, c);
            }
        }
        Predicate::Or(children) => {
            enc.put_u8(5);
            enc.put_u32(children.len() as u32);
            for c in children {
                put_predicate(enc, c);
            }
        }
        Predicate::Not(inner) => {
            enc.put_u8(6);
            put_predicate(enc, inner);
        }
    }
}

pub(crate) fn take_predicate(dec: &mut Decoder<'_>, depth: usize) -> DecodeResult<Predicate> {
    if depth > MAX_PREDICATE_DEPTH {
        return Err(format!(
            "predicate nesting exceeds the {MAX_PREDICATE_DEPTH}-level limit"
        ));
    }
    match dec.take_u8()? {
        0 => Ok(Predicate::True),
        1 => Ok(Predicate::Range {
            attribute: dec.take_str()?,
            low: dec.take_i64()?,
            high: dec.take_i64()?,
        }),
        2 => Ok(Predicate::Equals {
            attribute: dec.take_str()?,
            value: take_value(dec)?,
        }),
        3 => {
            let attribute = dec.take_str()?;
            let len = dec.take_count(1)?;
            let values = (0..len)
                .map(|_| take_value(dec))
                .collect::<DecodeResult<Vec<Value>>>()?;
            Ok(Predicate::InSet { attribute, values })
        }
        4 => Ok(Predicate::And(take_children(dec, depth)?)),
        5 => Ok(Predicate::Or(take_children(dec, depth)?)),
        6 => Ok(Predicate::Not(Box::new(take_predicate(dec, depth + 1)?))),
        t => Err(format!("unknown predicate tag {t}")),
    }
}

fn take_children(dec: &mut Decoder<'_>, depth: usize) -> DecodeResult<Vec<Predicate>> {
    let len = dec.take_count(1)?;
    (0..len).map(|_| take_predicate(dec, depth + 1)).collect()
}

pub(crate) fn put_query(enc: &mut Encoder, query: &Query) {
    enc.put_str(&query.table);
    match &query.aggregate {
        AggregateKind::Count => enc.put_u8(0),
        AggregateKind::Sum(a) => {
            enc.put_u8(1);
            enc.put_str(a);
        }
        AggregateKind::Avg(a) => {
            enc.put_u8(2);
            enc.put_str(a);
        }
    }
    put_predicate(enc, &query.predicate);
    enc.put_u32(query.group_by.len() as u32);
    for g in &query.group_by {
        enc.put_str(g);
    }
}

pub(crate) fn take_query(dec: &mut Decoder<'_>) -> DecodeResult<Query> {
    let table = dec.take_str()?;
    let aggregate = match dec.take_u8()? {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum(dec.take_str()?),
        2 => AggregateKind::Avg(dec.take_str()?),
        t => return Err(format!("unknown aggregate tag {t}")),
    };
    let predicate = take_predicate(dec, 0)?;
    let len = dec.take_count(4)?;
    let group_by = (0..len)
        .map(|_| dec.take_str())
        .collect::<DecodeResult<Vec<String>>>()?;
    Ok(Query {
        table,
        aggregate,
        predicate,
        group_by,
    })
}

fn put_mode(enc: &mut Encoder, mode: &SubmissionMode) {
    match mode {
        SubmissionMode::Accuracy { variance } => {
            enc.put_u8(0);
            enc.put_f64(*variance);
        }
        SubmissionMode::Privacy { epsilon } => {
            enc.put_u8(1);
            enc.put_f64(*epsilon);
        }
    }
}

fn take_mode(dec: &mut Decoder<'_>) -> DecodeResult<SubmissionMode> {
    match dec.take_u8()? {
        0 => Ok(SubmissionMode::Accuracy {
            variance: dec.take_f64()?,
        }),
        1 => Ok(SubmissionMode::Privacy {
            epsilon: dec.take_f64()?,
        }),
        t => Err(format!("unknown submission-mode tag {t}")),
    }
}

pub(crate) fn put_grouped_request(enc: &mut Encoder, request: &GroupedRequest) {
    let q = &request.query;
    enc.put_str(&q.table);
    enc.put_u32(q.group_cols.len() as u32);
    for g in &q.group_cols {
        enc.put_str(g);
    }
    match &q.aggregate {
        AggregateKind::Count => enc.put_u8(0),
        AggregateKind::Sum(a) => {
            enc.put_u8(1);
            enc.put_str(a);
        }
        AggregateKind::Avg(a) => {
            enc.put_u8(2);
            enc.put_str(a);
        }
    }
    put_predicate(enc, &q.predicate);
    put_mode(enc, &request.mode);
}

pub(crate) fn take_grouped_request(dec: &mut Decoder<'_>) -> DecodeResult<GroupedRequest> {
    let table = dec.take_str()?;
    let len = dec.take_count(4)?;
    let group_cols = (0..len)
        .map(|_| dec.take_str())
        .collect::<DecodeResult<Vec<String>>>()?;
    let aggregate = match dec.take_u8()? {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum(dec.take_str()?),
        2 => AggregateKind::Avg(dec.take_str()?),
        t => return Err(format!("unknown aggregate tag {t}")),
    };
    let predicate = take_predicate(dec, 0)?;
    let mode = take_mode(dec)?;
    Ok(GroupedRequest {
        query: GroupByQuery {
            table,
            group_cols,
            aggregate,
            predicate,
        },
        mode,
    })
}

pub(crate) fn put_grouped_outcome(enc: &mut Encoder, outcome: &GroupedOutcome) {
    enc.put_u32(outcome.keys.len() as u32);
    for key in &outcome.keys {
        enc.put_u32(key.len() as u32);
        for value in key {
            put_value(enc, value);
        }
    }
    enc.put_u32(outcome.outcomes.len() as u32);
    for o in &outcome.outcomes {
        put_outcome(enc, o);
    }
}

pub(crate) fn take_grouped_outcome(dec: &mut Decoder<'_>) -> DecodeResult<GroupedOutcome> {
    let n = dec.take_count(4)?;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        let len = dec.take_count(2)?;
        let mut key = Vec::with_capacity(len);
        for _ in 0..len {
            key.push(take_value(dec)?);
        }
        keys.push(key);
    }
    let n = dec.take_count(1)?;
    let outcomes = (0..n)
        .map(|_| take_outcome(dec))
        .collect::<DecodeResult<Vec<QueryOutcome>>>()?;
    Ok(GroupedOutcome { keys, outcomes })
}

pub(crate) fn put_request_body(enc: &mut Encoder, request: &QueryRequest) {
    put_query(enc, &request.query);
    put_mode(enc, &request.mode);
}

pub(crate) fn take_request_body(dec: &mut Decoder<'_>) -> DecodeResult<QueryRequest> {
    Ok(QueryRequest {
        query: take_query(dec)?,
        mode: take_mode(dec)?,
    })
}

pub(crate) fn put_reject_reason(enc: &mut Encoder, reason: &RejectReason) {
    match reason {
        RejectReason::AnalystConstraint { analyst } => {
            enc.put_u8(0);
            enc.put_u64(analyst.0 as u64);
        }
        RejectReason::ViewConstraint { view } => {
            enc.put_u8(1);
            enc.put_str(view);
        }
        RejectReason::TableConstraint => enc.put_u8(2),
        RejectReason::AccuracyUnreachable => enc.put_u8(3),
        RejectReason::NotAnswerable => enc.put_u8(4),
        RejectReason::InsufficientSynopsis => enc.put_u8(5),
        // `RejectReason` is #[non_exhaustive]: a variant added without a
        // protocol bump is shipped as tag 255 + display text, which old
        // decoders refuse loudly instead of mis-reporting the class.
        other => {
            enc.put_u8(255);
            enc.put_str(&other.to_string());
        }
    }
}

pub(crate) fn take_reject_reason(dec: &mut Decoder<'_>) -> DecodeResult<RejectReason> {
    match dec.take_u8()? {
        0 => Ok(RejectReason::AnalystConstraint {
            analyst: dprov_core::analyst::AnalystId(dec.take_u64()? as usize),
        }),
        1 => Ok(RejectReason::ViewConstraint {
            view: dec.take_str()?,
        }),
        2 => Ok(RejectReason::TableConstraint),
        3 => Ok(RejectReason::AccuracyUnreachable),
        4 => Ok(RejectReason::NotAnswerable),
        5 => Ok(RejectReason::InsufficientSynopsis),
        255 => Err(format!(
            "peer sent a rejection class this build does not know: {}",
            dec.take_str()?
        )),
        t => Err(format!("unknown reject-reason tag {t}")),
    }
}

pub(crate) fn put_outcome(enc: &mut Encoder, outcome: &QueryOutcome) {
    match outcome {
        QueryOutcome::Answered(a) => {
            enc.put_u8(0);
            enc.put_f64(a.value);
            match &a.view {
                Some(v) => {
                    enc.put_u8(1);
                    enc.put_str(v);
                }
                None => enc.put_u8(0),
            }
            enc.put_f64(a.epsilon_charged);
            enc.put_f64(a.noise_variance);
            enc.put_bool(a.from_cache);
            // Protocol v2: the update epoch the answer reflects.
            enc.put_u64(a.epoch);
        }
        QueryOutcome::Rejected { reason } => {
            enc.put_u8(1);
            put_reject_reason(enc, reason);
        }
    }
}

pub(crate) fn take_outcome(dec: &mut Decoder<'_>) -> DecodeResult<QueryOutcome> {
    match dec.take_u8()? {
        0 => {
            let value = dec.take_f64()?;
            let view = match dec.take_u8()? {
                0 => None,
                1 => Some(dec.take_str()?),
                t => return Err(format!("invalid option tag {t}")),
            };
            Ok(QueryOutcome::Answered(AnsweredQuery {
                value,
                view,
                epsilon_charged: dec.take_f64()?,
                noise_variance: dec.take_f64()?,
                from_cache: dec.take_bool()?,
                epoch: dec.take_u64()?,
            }))
        }
        1 => Ok(QueryOutcome::Rejected {
            reason: take_reject_reason(dec)?,
        }),
        t => Err(format!("unknown outcome tag {t}")),
    }
}

pub(crate) fn put_update_batch(enc: &mut Encoder, batch: &dprov_delta::UpdateBatch) {
    enc.put_str(&batch.table);
    put_value_rows(enc, &batch.inserts);
    put_value_rows(enc, &batch.deletes);
}

pub(crate) fn take_update_batch(dec: &mut Decoder<'_>) -> DecodeResult<dprov_delta::UpdateBatch> {
    Ok(dprov_delta::UpdateBatch {
        table: dec.take_str()?,
        inserts: take_value_rows(dec)?,
        deletes: take_value_rows(dec)?,
    })
}

fn put_value_rows(enc: &mut Encoder, rows: &[Vec<Value>]) {
    enc.put_u32(rows.len() as u32);
    for row in rows {
        enc.put_u32(row.len() as u32);
        for value in row {
            put_value(enc, value);
        }
    }
}

fn take_value_rows(dec: &mut Decoder<'_>) -> DecodeResult<Vec<Vec<Value>>> {
    let n = dec.take_count(4)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let len = dec.take_count(2)?;
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            row.push(take_value(dec)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

pub(crate) fn put_metrics_snapshot(enc: &mut Encoder, snap: &dprov_obs::MetricsSnapshot) {
    enc.put_u32(snap.counters.len() as u32);
    for (name, value) in &snap.counters {
        enc.put_str(name);
        enc.put_u64(*value);
    }
    enc.put_u32(snap.gauges.len() as u32);
    for (name, value) in &snap.gauges {
        enc.put_str(name);
        enc.put_f64(*value);
    }
    enc.put_u32(snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        enc.put_str(name);
        enc.put_u64(h.count);
        enc.put_u64(h.sum);
        enc.put_u64(h.max);
        enc.put_u64(h.p50);
        enc.put_u64(h.p95);
        enc.put_u64(h.p99);
    }
    enc.put_u32(snap.budgets.len() as u32);
    for b in &snap.budgets {
        enc.put_str(&b.analyst);
        enc.put_str(&b.view);
        enc.put_f64(b.entry_epsilon);
        enc.put_f64(b.remaining_epsilon);
    }
}

pub(crate) fn take_metrics_snapshot(
    dec: &mut Decoder<'_>,
) -> DecodeResult<dprov_obs::MetricsSnapshot> {
    // Every entry starts with a length-prefixed name, so 4 bytes is a
    // safe lower bound for the payload-bounded length checks.
    let n = dec.take_count(4)?;
    let counters = (0..n)
        .map(|_| Ok((dec.take_str()?, dec.take_u64()?)))
        .collect::<DecodeResult<Vec<_>>>()?;
    let n = dec.take_count(4)?;
    let gauges = (0..n)
        .map(|_| Ok((dec.take_str()?, dec.take_f64()?)))
        .collect::<DecodeResult<Vec<_>>>()?;
    let n = dec.take_count(4)?;
    let histograms = (0..n)
        .map(|_| {
            Ok((
                dec.take_str()?,
                dprov_obs::HistogramSnapshot {
                    count: dec.take_u64()?,
                    sum: dec.take_u64()?,
                    max: dec.take_u64()?,
                    p50: dec.take_u64()?,
                    p95: dec.take_u64()?,
                    p99: dec.take_u64()?,
                },
            ))
        })
        .collect::<DecodeResult<Vec<_>>>()?;
    let n = dec.take_count(4)?;
    let budgets = (0..n)
        .map(|_| {
            Ok(dprov_obs::BudgetGauge {
                analyst: dec.take_str()?,
                view: dec.take_str()?,
                entry_epsilon: dec.take_f64()?,
                remaining_epsilon: dec.take_f64()?,
            })
        })
        .collect::<DecodeResult<Vec<_>>>()?;
    Ok(dprov_obs::MetricsSnapshot {
        counters,
        gauges,
        histograms,
        budgets,
    })
}

/// Wraps a decode-reason string into the protocol's malformed-payload
/// error.
pub(crate) fn malformed(reason: impl std::fmt::Display) -> ApiError {
    ApiError::new(
        codes::MALFORMED_FRAME,
        format!("malformed message: {reason}"),
    )
}
