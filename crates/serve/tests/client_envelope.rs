//! The client's request envelope against a scripted loopback peer: a reply
//! carrying the wrong `id` is refused as stale and drops the connection,
//! the next attempt reconnects, and a socket timeout set by the caller
//! keeps bounding reads on every reconnect.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fewner_serve::{Client, Response, RetryPolicy};
use fewner_util::{Error, Json};

/// How the peer answers one request line.
enum Reply {
    /// A pong echoing the request's id.
    Echo,
    /// A pong echoing some other id, as a stale reply would.
    WrongId,
    /// Nothing at all; the connection stays open.
    Silent,
}

/// Stands in for the daemon: answers the i-th request line it reads with
/// `script[i]`, across however many connections the client opens, and
/// returns every request it saw. A connection idle for 10 s is dropped, so
/// a client without a working timeout fails its test instead of hanging it.
fn scripted_peer(script: Vec<Reply>) -> (String, JoinHandle<Vec<Json>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        let mut replies = script.into_iter().peekable();
        let mut seen = Vec::new();
        while replies.peek().is_some() {
            let (mut stream, _) = listener.accept().expect("accept");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                let req = Json::parse(line.trim_end()).expect("request is JSON");
                line.clear();
                let id = req.get("id").and_then(|v| v.as_str().ok()).unwrap_or("");
                let echoed = match replies.next() {
                    Some(Reply::Echo) => Some(id.to_string()),
                    Some(Reply::WrongId) => Some(format!("{id}-stale")),
                    Some(Reply::Silent) | None => None,
                };
                seen.push(req);
                // A silent turn keeps reading: the connection stays open
                // until the client gives up on it.
                let Some(echoed) = echoed else { continue };
                let mut resp = Response::Pong.to_json();
                if let Json::Obj(fields) = &mut resp {
                    fields.push(("id".into(), Json::Str(echoed)));
                }
                writeln!(stream, "{resp}").expect("reply");
                if replies.peek().is_none() {
                    break;
                }
            }
        }
        seen
    });
    (addr, peer)
}

#[test]
fn a_stale_reply_fails_the_request_and_the_next_one_reconnects() {
    let (addr, peer) = scripted_peer(vec![Reply::WrongId, Reply::Echo]);
    let mut client = Client::connect(&addr).unwrap();
    match client.ping() {
        Err(Error::Serde(msg)) => assert!(msg.contains("id mismatch"), "{msg}"),
        other => panic!("expected a stale-reply Serde error, got {other:?}"),
    }
    client
        .ping()
        .expect("the next request reconnects and succeeds");
    let stats = client.retry_stats();
    assert_eq!(
        (stats.retries, stats.reconnects, stats.deadline_misses),
        (0, 1, 0)
    );

    let seen = peer.join().unwrap();
    let ids: Vec<&str> = seen
        .iter()
        .map(|r| r.get("id").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(ids, ["r0", "r1"], "one fresh id per request");
    assert!(
        seen.iter().all(|r| r.get("attempt").is_none()),
        "a client without retries never sends an attempt counter"
    );
}

#[test]
fn a_retrying_client_recovers_from_a_stale_reply_on_its_second_attempt() {
    let (addr, peer) = scripted_peer(vec![Reply::WrongId, Reply::Echo]);
    let policy = RetryPolicy::new().max_retries(1).backoff_ms(1, 1);
    let mut client = Client::new(&addr, policy);
    client.ping().expect("the retry gets the matching reply");
    let stats = client.retry_stats();
    assert_eq!(
        (stats.retries, stats.reconnects, stats.deadline_misses),
        (1, 1, 0)
    );

    let seen = peer.join().unwrap();
    assert_eq!(seen.len(), 2);
    for req in &seen {
        assert_eq!(req.get("id").unwrap().as_str().unwrap(), "r0");
    }
    assert!(seen[0].get("attempt").is_none());
    assert_eq!(seen[1].get("attempt").unwrap().as_u64().unwrap(), 1);
}

#[test]
fn the_io_timeout_still_bounds_reads_after_a_reconnect() {
    let (addr, peer) = scripted_peer(vec![Reply::WrongId, Reply::Silent]);
    let mut client = Client::connect(&addr).unwrap();
    client
        .set_io_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    assert!(matches!(client.ping(), Err(Error::Serde(_))));

    // The stale reply dropped the connection; this request reconnects and
    // then waits on a peer that never answers.
    let started = Instant::now();
    let err = client.ping().unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, Error::Io { .. }), "got {err:?}");
    assert!(
        elapsed < Duration::from_secs(5),
        "the 200 ms timeout was lost on reconnect: blocked {elapsed:?}"
    );
    assert_eq!(client.retry_stats().reconnects, 2);
    drop(client);
    peer.join().unwrap();
}
