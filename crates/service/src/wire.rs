//! Wire protocol: length-prefixed, CRC-verified JSON frames and the job
//! codec.
//!
//! Every message — request or response — is one JSON document framed by
//! a 4-byte big-endian byte length and a 4-byte big-endian CRC32 of the
//! payload. Length prefixes beat line framing here because result
//! fragments embed arbitrary violation strings, and they make the read
//! loop trivially robust against partial reads. The CRC turns silent
//! mid-frame corruption (a flipped bit on a bad link, a fault-injection
//! proxy doing its job) into a detectable [`bad frame`](is_bad_frame)
//! that the daemon rejects with a structured error instead of feeding
//! garbage into the JSON parser or — worse — the result cache.
//!
//! ## Requests
//!
//! | `type`      | fields                         | response |
//! |-------------|--------------------------------|----------|
//! | `submit`    | `job`: canonical job document  | `accepted` \| `rejected` \| `error` |
//! | `status`    | `job_id`                       | `status` |
//! | `result`    | `job_id`, `wait` (bool)        | `result` \| `status` \| `error` |
//! | `cancel`    | `job_id`                       | `cancelled` |
//! | `stats`     | —                              | `stats` |
//! | `shutdown`  | —                              | `shutdown` |
//! | `heartbeat` | —                              | `heartbeat_ack` (`engine`, `queue_depth`, `running`, `draining`) |
//! | `drain`     | `resume` (bool, optional)      | `draining` |
//!
//! The federation additions: `heartbeat` is the coordinator's health
//! probe (cheap, lock-light, answered even while draining); `drain` is
//! a reversible operator signal — the daemon finishes what it has and
//! bounces new submits with `rejected reason:"draining"` until a
//! `drain` with `resume:true`. The `dtnfedd` coordinator serves the
//! same client-facing table plus `register` (`addr`: a worker joins the
//! federation) and `drain` (`addr`, `resume`: drain one worker through
//! the coordinator); its `stats` answer carries
//! `role:"coordinator"` and a per-shard `shards` array.
//!
//! `submit` answers `accepted` (`job_id`, `cached`) when the job is
//! cached, already known, or newly queued; `rejected` (`reason`,
//! `retry_after_ms`, `queue_depth`) is the queue-full backpressure
//! signal — the queue never grows without bound, clients are told when
//! to come back. `result` with `wait:true` blocks until the job leaves
//! the queue/worker pipeline; its `fragment` member is the daemon's
//! stored result document **verbatim** (it is always the last member, so
//! [`extract_fragment`] can recover the exact bytes), which is what
//! makes cache hits bit-identical to fresh computation.
//!
//! The job document itself is [`PointJob::to_canonical_json`]; the
//! daemon re-parses and re-renders it ([`job_from_value`] +
//! `to_canonical_json`), so the cache key never depends on client-side
//! formatting.

use crate::crc::crc32;
use crate::json::Value;
use dtn_epidemic::{ChurnMode, ChurnPlan, FaultPlan, GilbertElliott};
use dtn_experiments::jobs::{f64_from_hex, PointJob};
use dtn_experiments::Mobility;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on a single frame. Large enough for any report fragment
/// (a 10 000-replication point is ~2 MB), small enough that a corrupt
/// or hostile length prefix cannot balloon memory.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of frame header: 4-byte payload length + 4-byte payload CRC32,
/// both big-endian.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Write one length-prefixed, CRC-framed message. Header and payload go
/// out in a single write: two small writes would trip the
/// Nagle/delayed-ACK interaction and cost ~100 ms per frame on loopback.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let len = payload.len() as u32;
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&crc32(payload.as_bytes()).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

fn bad_frame(detail: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("bad_frame: {detail}"),
    )
}

/// True when `e` means the peer sent a structurally invalid frame
/// (oversized length, CRC mismatch, non-UTF-8 payload) rather than the
/// transport failing. The daemon answers these with a structured
/// `bad_frame` error before dropping the connection; transports errors
/// are just dropped.
pub fn is_bad_frame(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::InvalidData
}

/// True when `e` is a read/write deadline expiring (the slowloris
/// guard): both `WouldBlock` and `TimedOut` surface from socket
/// timeouts depending on platform.
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn decode_payload(header: [u8; FRAME_HEADER_BYTES], payload: Vec<u8>) -> std::io::Result<String> {
    let want_crc = u32::from_be_bytes(header[4..8].try_into().expect("4-byte slice"));
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(bad_frame(format!(
            "payload CRC {got_crc:08x} does not match header CRC {want_crc:08x}"
        )));
    }
    String::from_utf8(payload).map_err(bad_frame)
}

fn checked_len(header: [u8; FRAME_HEADER_BYTES]) -> std::io::Result<u32> {
    let len = u32::from_be_bytes(header[0..4].try_into().expect("4-byte slice"));
    if len > MAX_FRAME_BYTES {
        return Err(bad_frame(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    Ok(len)
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary (the
/// peer closed the connection); errors on truncated frames, oversized
/// prefixes, or CRC mismatches (see [`is_bad_frame`]).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut filled = 0usize;
    while filled < FRAME_HEADER_BYTES {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            n => filled += n,
        }
    }
    let len = checked_len(header)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode_payload(header, payload).map(Some)
}

/// Read one frame off a socket under two deadlines: `idle` bounds the
/// wait for the frame's **first byte** (how long a silent connection may
/// be parked), and `frame_deadline` bounds first-byte-to-last-byte (the
/// slowloris guard — a peer trickling one byte per second can otherwise
/// pin a connection thread forever, since per-read timeouts reset on
/// every byte). Restores no particular timeout on return; callers own
/// the socket's timeout configuration.
pub fn read_frame_deadline(
    stream: &mut TcpStream,
    idle: Option<Duration>,
    frame_deadline: Option<Duration>,
) -> std::io::Result<Option<String>> {
    stream.set_read_timeout(idle)?;
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut filled = 0usize;
    let mut started: Option<Instant> = None;
    let arm = |stream: &TcpStream, started: Instant| -> std::io::Result<()> {
        let Some(budget) = frame_deadline else {
            return stream.set_read_timeout(None);
        };
        let remaining = budget
            .checked_sub(started.elapsed())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame deadline exceeded mid-frame",
                )
            })?;
        stream.set_read_timeout(Some(remaining))
    };
    while filled < FRAME_HEADER_BYTES {
        match stream.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            n => {
                filled += n;
                let t = *started.get_or_insert_with(Instant::now);
                arm(stream, t)?;
            }
        }
    }
    let len = checked_len(header)? as usize;
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    let started = started.unwrap_or_else(Instant::now);
    while got < len {
        match stream.read(&mut payload[got..])? {
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            n => {
                got += n;
                arm(stream, started)?;
            }
        }
    }
    decode_payload(header, payload).map(Some)
}

/// Read one frame's **raw encoded bytes** (header + payload) without
/// verifying the CRC or the payload encoding. This is the fault-
/// injection proxy's forwarding unit: the proxy must relay frames
/// byte-for-byte — including ones it deliberately corrupted — and let
/// the endpoints' CRC verification do its job.
pub fn read_raw_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut filled = 0usize;
    while filled < FRAME_HEADER_BYTES {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            n => filled += n,
        }
    }
    let len = checked_len(header)? as usize;
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + len);
    frame.extend_from_slice(&header);
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    frame.extend_from_slice(&payload);
    Ok(Some(frame))
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn hex_f64(v: &Value, key: &str) -> Result<f64, String> {
    f64_from_hex(field(v, key)?).map_err(|e| format!("field {key:?}: {e}"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be an unsigned integer"))
}

/// Decode a canonical job document (the `job` member of a `submit`
/// request) back into a [`PointJob`]. Inverse of
/// [`PointJob::to_canonical_json`]; the round trip is tested to be
/// exact, which the content-addressed cache relies on.
pub fn job_from_value(v: &Value) -> Result<PointJob, String> {
    let faults_v = field(v, "faults")?;
    let burst = match field(faults_v, "burst")? {
        Value::Null => None,
        b => Some(GilbertElliott {
            loss_good: hex_f64(b, "loss_good")?,
            loss_bad: hex_f64(b, "loss_bad")?,
            p_good_to_bad: hex_f64(b, "p_good_to_bad")?,
            p_bad_to_good: hex_f64(b, "p_bad_to_good")?,
        }),
    };
    let churn = match field(faults_v, "churn")? {
        Value::Null => None,
        c => Some(ChurnPlan {
            mean_up_secs: hex_f64(c, "mean_up_secs")?,
            mean_down_secs: hex_f64(c, "mean_down_secs")?,
            mode: match c.get("mode").and_then(Value::as_str) {
                Some("crash") => ChurnMode::Crash,
                Some("duty") => ChurnMode::DutyCycle,
                other => return Err(format!("bad churn mode {other:?}")),
            },
        }),
    };
    let point_timeout_secs = match field(v, "point_timeout_secs")? {
        Value::Null => None,
        t => Some(
            t.as_u64()
                .ok_or("point_timeout_secs must be null or an unsigned integer")?,
        ),
    };
    let job = PointJob {
        protocol: field(v, "protocol")?
            .as_str()
            .ok_or("protocol must be a string")?
            .to_string(),
        mobility: Mobility::parse(
            field(v, "mobility")?
                .as_str()
                .ok_or("mobility must be a string")?,
        )?,
        load: u64_field(v, "load")?
            .try_into()
            .map_err(|_| "load out of range")?,
        replications: u64_field(v, "replications")? as usize,
        root_seed: u64_field(v, "root_seed")?,
        trace_seed: u64_field(v, "trace_seed")?,
        buffer_capacity: u64_field(v, "buffer")? as usize,
        tx_time_secs: u64_field(v, "tx_time_secs")?,
        transfer_loss: hex_f64(v, "transfer_loss")?,
        faults: FaultPlan {
            truncation_prob: hex_f64(faults_v, "truncation_prob")?,
            ack_loss_prob: hex_f64(faults_v, "ack_loss_prob")?,
            burst,
            churn,
        },
        retries: u64_field(v, "retries")?
            .try_into()
            .map_err(|_| "retries out of range")?,
        point_timeout_secs,
        audit: field(v, "audit")?.as_bool().ok_or("audit must be a bool")?,
    };
    job.validate()?;
    Ok(job)
}

/// Recover the verbatim `fragment` document from a `result` response.
/// The daemon always renders `fragment` as the **last** member, so the
/// exact stored bytes are the span between the key and the closing
/// brace — no JSON re-rendering touches them.
pub fn extract_fragment(raw: &str) -> Option<&str> {
    let idx = raw.find(",\"fragment\":")?;
    let body = &raw[idx + ",\"fragment\":".len()..];
    body.strip_suffix('}')
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_experiments::jobs::exercise_fault_plan;
    use dtn_experiments::SweepConfig;

    fn jobs() -> Vec<PointJob> {
        let cfg = SweepConfig::default();
        let plain = PointJob::from_sweep("pure", Mobility::Trace, 10, &cfg);
        let mut faulty = PointJob::from_sweep("pq=0.3,0.7", Mobility::Interval(2000), 25, &cfg);
        faulty.faults = exercise_fault_plan();
        faulty.transfer_loss = 0.1;
        faulty.point_timeout_secs = Some(30);
        faulty.audit = true;
        faulty.root_seed = u64::MAX;
        vec![plain, faulty]
    }

    #[test]
    fn job_codec_round_trips_exactly() {
        for job in jobs() {
            let doc = job.to_canonical_json();
            let back = job_from_value(&Value::parse(&doc).unwrap()).unwrap();
            assert_eq!(back, job);
            assert_eq!(back.to_canonical_json(), doc, "re-render must be stable");
        }
    }

    #[test]
    fn job_decode_rejects_invalid_jobs() {
        let cfg = SweepConfig::default();
        let mut bad = PointJob::from_sweep("pure", Mobility::Trace, 10, &cfg);
        bad.load = 0;
        let doc = bad.to_canonical_json();
        assert!(job_from_value(&Value::parse(&doc).unwrap()).is_err());
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"stats\"}").unwrap();
        write_frame(&mut buf, "second ☃ frame").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"type\":\"stats\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "second ☃ frame");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        let mut huge = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 4]); // CRC half of the header
        let err = read_frame(&mut &huge[..]).unwrap_err();
        assert!(is_bad_frame(&err), "oversize is a bad frame: {err}");
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err(), "truncated payload");
        let partial = [0u8, 0];
        assert!(read_frame(&mut &partial[..]).is_err(), "truncated prefix");
    }

    #[test]
    fn corrupted_payload_bytes_are_rejected_by_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"stats\"}").unwrap();
        for i in FRAME_HEADER_BYTES..buf.len() {
            let mut copy = buf.clone();
            copy[i] ^= 0x20;
            let err = read_frame(&mut &copy[..]).unwrap_err();
            assert!(
                is_bad_frame(&err),
                "flipping payload byte {i} must trip the CRC, got {err}"
            );
        }
        // A corrupted CRC field itself is equally fatal.
        let mut copy = buf.clone();
        copy[5] ^= 0x01;
        assert!(is_bad_frame(&read_frame(&mut &copy[..]).unwrap_err()));
    }

    #[test]
    fn raw_frames_round_trip_verbatim_even_when_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload").unwrap();
        buf[FRAME_HEADER_BYTES] ^= 0xFF; // corrupt the first payload byte
        let mut r = &buf[..];
        let raw = read_raw_frame(&mut r).unwrap().unwrap();
        assert_eq!(raw, buf, "the proxy's reader must not drop corrupt frames");
        assert_eq!(read_raw_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn fragment_extraction_is_verbatim() {
        let fragment = "{\"attempts\":[1],\"slow\":0,\"runs\":[[1]],\"violations\":[]}";
        let response = format!(
            "{{\"type\":\"result\",\"job_id\":\"ab\",\"cached\":true,\"fragment\":{fragment}}}"
        );
        assert_eq!(extract_fragment(&response), Some(fragment));
        assert_eq!(extract_fragment("{\"type\":\"error\"}"), None);
    }
}
