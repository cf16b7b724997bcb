//! The benchmark's side of the newline-delimited JSON wire.

use crate::workload::Job;
use qca_telemetry::export::escape;
use qca_telemetry::json::{self, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A measured histogram: `(bits, count)` ascending by bits.
pub type Histogram = Vec<(u64, u64)>;

/// One client connection, in two halves so that one thread can write
/// requests while another reads the replies.
#[derive(Debug)]
pub struct Conn {
    pub tx: TcpStream,
    pub rx: Replies,
}

/// The reading half of a connection.
#[derive(Debug)]
pub struct Replies {
    reader: BufReader<TcpStream>,
    line: String,
    /// When the last reply line arrived, before it was parsed: the
    /// benchmark's own JSON parsing is not the service's time.
    pub arrived: Instant,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Request lines are small: without TCP_NODELAY, Nagle plus
        // delayed ACKs would pin round trips at ~40 ms.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            tx: stream,
            rx: Replies {
                reader,
                line: String::new(),
                arrived: Instant::now(),
            },
        })
    }

    /// Submits a job and waits for its id.
    pub fn submit(&mut self, job: &Job) -> Result<u64, String> {
        send_submit(&mut self.tx, job)?;
        self.rx.submitted()
    }

    /// Blocks for a job's result.
    pub fn result(&mut self, id: u64) -> Result<Outcome, String> {
        send_result(&mut self.tx, id)?;
        self.rx.result()
    }
}

/// Writes a result request without waiting for the reply.
pub fn send_result(tx: &mut TcpStream, id: u64) -> Result<(), String> {
    send(
        tx,
        &format!("{{\"verb\":\"result\",\"job\":{id},\"timeout_ms\":60000}}\n"),
    )
}

/// Takes the histogram object out of a result reply. `qca_telemetry`'s
/// JSON parser re-validates the rest of its input for every string
/// character, so a 90 KB, 8192-outcome histogram costs it ~60 ms, CPU
/// the service would be measured without. The histogram's fixed
/// `{"bits":count,...}` shape is read directly instead; the rest goes to
/// the JSON parser with the histogram replaced by `null`.
fn split_histogram(line: &str) -> Result<(String, Option<Histogram>), String> {
    const KEY: &str = "\"histogram\":{";
    let Some(start) = line.find(KEY) else {
        return Ok((line.to_string(), None));
    };
    let body = start + KEY.len();
    let end = body + line[body..].find('}').ok_or("unterminated histogram")?;
    let mut histogram = line[body..end]
        .split(',')
        .filter(|entry| !entry.is_empty())
        .map(|entry| {
            let (bits, count) = entry
                .split_once(':')
                .ok_or_else(|| format!("bad histogram entry {entry:?}"))?;
            let parse = |v: &str| {
                v.trim_matches('"')
                    .parse::<u64>()
                    .map_err(|e| format!("bad histogram entry {entry:?}: {e}"))
            };
            Ok((parse(bits)?, parse(count)?))
        })
        .collect::<Result<Histogram, String>>()?;
    histogram.sort_unstable();
    let rest = format!("{}\"histogram\":null{}", &line[..start], &line[end + 1..]);
    Ok((rest, Some(histogram)))
}

fn send(tx: &mut TcpStream, request: &str) -> Result<(), String> {
    tx.write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))
}

/// Writes a submit request without waiting for the reply.
pub fn send_submit(tx: &mut TcpStream, job: &Job) -> Result<(), String> {
    let tenant = job
        .tenant
        .map(|t| format!(",\"tenant\":\"{t}\""))
        .unwrap_or_default();
    send(
        tx,
        &format!(
            "{{\"verb\":\"submit\",\"circuit\":\"{}\",\"shots\":{},\"seed\":{}{tenant}}}\n",
            escape(&job.circuit),
            job.shots,
            job.seed
        ),
    )
}

impl Replies {
    /// The next reply line, unparsed.
    fn line(&mut self) -> Result<&str, String> {
        self.line.clear();
        self.reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        self.arrived = Instant::now();
        if self.line.is_empty() {
            return Err("server closed the connection".to_string());
        }
        Ok(&self.line)
    }

    /// The next reply, read as the answer to a `result` request: the
    /// job's outcome, or the service's refusal.
    pub fn result(&mut self) -> Result<Outcome, String> {
        let (rest, histogram) = split_histogram(self.line()?)?;
        let reply = json::parse(&rest).map_err(|e| format!("invalid reply: {e}"))?;
        if !ok(&reply) {
            return Err(refusal(&reply));
        }
        Outcome::from_reply(&reply, histogram.ok_or("result reply lacks a histogram")?)
    }

    /// The next reply, read as the answer to a submit: the job id, or
    /// the service's refusal.
    pub fn submitted(&mut self) -> Result<u64, String> {
        let reply = json::parse(self.line()?).map_err(|e| format!("invalid reply: {e}"))?;
        match reply.get("job").and_then(JsonValue::as_f64) {
            Some(id) if ok(&reply) => Ok(id as u64),
            _ => Err(refusal(&reply)),
        }
    }
}

fn ok(reply: &JsonValue) -> bool {
    reply.get("ok") == Some(&JsonValue::Bool(true))
}

fn refusal(reply: &JsonValue) -> String {
    let field = |k| reply.get(k).and_then(JsonValue::as_str).unwrap_or("?");
    format!("{}: {}", field("error"), field("message"))
}

/// The engines the service reports, interned so samples stay small.
const ENGINES: [&str; 4] = ["state_vector", "tableau", "pauli_frame", "density"];

/// What a `result` reply says about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub histogram: Histogram,
    pub cache_hit: bool,
    pub shards: u64,
    pub wait_us: u64,
    pub exec_us: u64,
    pub engine: &'static str,
}

impl Outcome {
    fn from_reply(reply: &JsonValue, histogram: Histogram) -> Result<Outcome, String> {
        let num = |k: &str| {
            reply
                .get(k)
                .and_then(JsonValue::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("result reply lacks {k}"))
        };
        let engine = reply
            .get("engine")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        Ok(Outcome {
            histogram,
            cache_hit: reply.get("cache_hit") == Some(&JsonValue::Bool(true)),
            shards: num("shards")?,
            wait_us: num("wait_us")?,
            exec_us: num("exec_us")?,
            engine: ENGINES
                .into_iter()
                .find(|e| *e == engine)
                .ok_or_else(|| format!("unknown engine {engine:?}"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_histogram_is_split_out_of_a_result_reply() {
        let line = "{\"ok\":true,\"job\":3,\"histogram\":{\"3\":5,\"0\":7},\"shots\":12}\n";
        let (rest, histogram) = split_histogram(line).unwrap();
        assert_eq!(histogram, Some(vec![(0, 7), (3, 5)]));
        let rest = json::parse(&rest).unwrap();
        assert_eq!(rest.get("shots").and_then(JsonValue::as_f64), Some(12.0));
        assert_eq!(rest.get("histogram"), Some(&JsonValue::Null));
        let empty = split_histogram("{\"histogram\":{},\"ok\":true}").unwrap();
        assert_eq!(empty.1, Some(vec![]));
        let refusal = "{\"ok\":false,\"error\":\"timeout\"}";
        assert_eq!(
            split_histogram(refusal).unwrap(),
            (refusal.to_string(), None)
        );
        assert!(split_histogram("{\"histogram\":{\"1\":x}}").is_err());
    }
}
