//! `serve`: a multi-tenant `pncheckd` with no cache dir and two client
//! connections. Requests are `analyze` with an inline `source`: about
//! 80% repeat a 200-source hot set (warm source-tier hits), the rest are
//! novel (mostly leaf programs, some fan-in), which parse, analyze and
//! grow the resident tiers.
//!
//! Two kinds of step, alternating. A base step offers [`BASE_RPS`] open
//! loop; each request is timed from the moment it was due, so a stalled
//! generator or a queue in front of the server shows as latency
//! (`p50_ms`, `tail_ms`). A saturating step keeps the daemon's
//! per-client quota of requests in flight on both connections and sends
//! the next as soon as a reply arrives; `ops_per_s` is the rate it
//! achieves. A closed window cannot build a growing backlog: by Little's
//! law the round trip stays near the window over the rate.

use std::collections::HashSet;
use std::thread;
use std::time::{Duration, Instant};

use pnew_detector::emit::{render_json, FileRecord};
use pnew_detector::server::{parse_json, Server, ServerConfig};
use pnew_detector::sim::SimRng;
use pnew_detector::{source_fingerprint, Analyzer, BatchEngine};

use crate::client::{int, quote, Conn, Daemon, Stats};
use crate::gen::{self, Expect};
use crate::layers::Layers;
use crate::span::{write_spans, Tracer};
use crate::stats::{mean, median, ms_since, peak_rss_mb, quantile, ratio, tail};
use crate::{Args, Outcome};

/// Offered rate of the base steps (requests/s), and their share of the
/// run's seconds.
const BASE_RPS: f64 = 250.0;
const BASE_SHARE: f64 = 0.5;
/// Saturating requests per second of `--seconds`: a fixed amount of
/// work, whatever the machine's speed.
const SATURATE_PER_SECOND: f64 = 600.0;
/// Windows a saturating step's replies are cut into by arrival time;
/// its rate is the median over them.
const RATE_WINDOWS: usize = 5;
/// Rounds of one base step and one saturating step; `ops_per_s` is the
/// median of the saturating steps' rates.
const ROUNDS: usize = 5;
const HOT_SET: usize = 200;
/// One request in this many is novel; one novel request in
/// `FAN_IN_EVERY` is a fan-in program.
const NOVEL_EVERY: u64 = 5;
const FAN_IN_EVERY: u64 = 5;
const CONNECTIONS: usize = 2;
/// Most requests one connection keeps in flight: the daemon's default
/// per-client quota. A due request waits (and runs late) beyond it.
const IN_FLIGHT: usize = 16;
/// Set-up samples before each round, besides the measured daemon's own;
/// `setup_s` is the median of all of them.
const SETUPS_PER_ROUND: usize = 5;

/// One prepared request and the payload a fresh engine gives for it.
struct Req {
    /// The request line of a novel source; `None` for hot source `hot`.
    novel: Option<String>,
    hot: usize,
    expected: u128,
}

/// One hot-set source: its text, request line and expected payload.
struct Hot {
    source: String,
    line: String,
    expected: u128,
}

/// Seeded request stream: hot repeats and never-repeating novel
/// sources.
struct Traffic {
    seed: u64,
    rng: SimRng,
    hot: Vec<Hot>,
    next_leaf: u64,
    next_fan_in: u64,
    fan_ins: u64,
    seen: HashSet<u128>,
    n: u64,
}

/// The `analyze` payload a fresh engine renders for `source`, and its
/// report.
fn fresh(source: &str) -> (u128, FileRecord) {
    let engine = BatchEngine::new(Analyzer::new()).with_jobs(1);
    let outcome = engine.scan_sources_with_stats(&[source]).0.remove(0);
    let record = FileRecord { path: "-".into(), report: outcome.report, errors: outcome.errors };
    let payload = render_json(std::slice::from_ref(&record), None, None);
    (source_fingerprint(&payload), record)
}

impl Traffic {
    fn new(seed: u64, out: &mut Outcome) -> Result<Traffic, String> {
        let mut t = Traffic {
            seed,
            rng: SimRng::new(seed ^ 0x7365_7276),
            hot: Vec::new(),
            next_leaf: 0,
            next_fan_in: gen::sub_seed(seed, gen::FAN_IN_SUBS),
            fan_ins: 0,
            seen: HashSet::new(),
            n: 0,
        };
        for i in 0..HOT_SET {
            let (source, expect) = t.source(i % FAN_IN_EVERY as usize == 0);
            let (expected, record) = fresh(&source);
            out.check(record.report.as_ref().is_some_and(|r| expect.holds(r)), || {
                format!("hot source {i}: verdict disagrees with its generator")
            });
            t.seen.insert(source_fingerprint(&source));
            t.hot.push(Hot { line: analyze_line(&source)?, source, expected });
        }
        Ok(t)
    }

    /// A never-seen source: a fan-in program or a leaf, alternating
    /// vulnerable and safe within each kind.
    fn source(&mut self, fan_in: bool) -> (String, Expect) {
        loop {
            let (source, expect) = if fan_in {
                self.fan_ins += 1;
                gen::fan_in(self.fan_ins.is_multiple_of(2), &mut self.next_fan_in)
            } else {
                self.next_leaf += 1;
                gen::leaf(
                    self.next_leaf.is_multiple_of(2),
                    gen::sub_seed(self.seed, self.next_leaf),
                )
            };
            if self.seen.insert(source_fingerprint(&source)) {
                return (source, expect);
            }
        }
    }

    /// The next request, its expected payload checked against the
    /// generator's answer.
    fn next(&mut self, out: &mut Outcome) -> Result<Req, String> {
        self.n += 1;
        if !self.n.is_multiple_of(NOVEL_EVERY) {
            let hot = self.rng.below(HOT_SET as u64) as usize;
            return Ok(Req { novel: None, hot, expected: self.hot[hot].expected });
        }
        let (source, expect) = self.source(self.n.is_multiple_of(NOVEL_EVERY * FAN_IN_EVERY));
        let (expected, record) = fresh(&source);
        out.check(record.report.as_ref().is_some_and(|r| expect.holds(r)), || {
            format!("novel request {}: verdict disagrees with its generator", self.n)
        });
        Ok(Req { novel: Some(analyze_line(&source)?), hot: 0, expected })
    }
}

fn analyze_line(source: &str) -> Result<String, String> {
    Ok(format!("{{\"op\":\"analyze\",\"source\":{}}}", quote(source)?))
}

/// The request line of `req` with request id `id` spliced in, so
/// out-of-order replies on one connection can be matched.
fn line_of(hot: &[Hot], req: &Req, id: usize) -> String {
    let line = req.novel.as_deref().unwrap_or(&hot[req.hot].line);
    format!("{{\"id\":{id},{}", &line[1..])
}

/// What one open-loop step measured.
#[derive(Default)]
struct Step {
    rate: f64,
    /// Latency of each request from its due time, ms, by request.
    latency: Vec<f64>,
    /// Round trip of each request from its actual send, ms, by request.
    rtt: Vec<f64>,
    /// Requests answered (one connection's share while driving).
    answered: Vec<usize>,
    /// How late each request was sent, ms.
    late: Vec<f64>,
    /// (ms since step start, backlog) samples: requests due but not
    /// yet answered on one connection.
    backlog: Vec<(f64, f64)>,
    /// Arrival of each reply, ms since the step started.
    arrived: Vec<f64>,
    mismatches: Vec<usize>,
    payload_bytes: f64,
}

impl Step {
    /// Replies per second in each of [`RATE_WINDOWS`] equal stretches
    /// of the step, the median over them: a stall of the shared machine
    /// moves one window, not the rate.
    fn reply_rate(&self) -> f64 {
        let first = self.arrived.iter().copied().fold(f64::INFINITY, f64::min);
        let last = self.arrived.iter().copied().fold(0.0, f64::max);
        let width = (last - first).max(1e-6) / RATE_WINDOWS as f64;
        let mut counts = [0usize; RATE_WINDOWS];
        for &t in &self.arrived {
            counts[(((t - first) / width) as usize).min(RATE_WINDOWS - 1)] += 1;
        }
        let rates: Vec<f64> = counts.iter().map(|&n| n as f64 / (width / 1e3)).collect();
        median(&rates)
    }
}

/// Offers `reqs` at `rate` over the connections, open loop.
fn run_step(conns: &mut [Conn], hot: &[Hot], reqs: &[Req], rate: f64) -> Result<Step, String> {
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<Result<Step, String>> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| scope.spawn(move || drive(conn, hot, reqs, c, start, rate)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let mut step = Step {
        rate,
        latency: vec![0.0; reqs.len()],
        rtt: vec![0.0; reqs.len()],
        ..Step::default()
    };
    for r in results {
        let part = r?;
        for &i in &part.answered {
            step.latency[i] = part.latency[i];
            step.rtt[i] = part.rtt[i];
        }
        step.late.extend(part.late);
        step.arrived.extend(part.arrived);
        step.backlog.extend(part.backlog);
        step.mismatches.extend(part.mismatches);
        step.payload_bytes += part.payload_bytes;
    }
    Ok(step)
}

/// One connection's share of a step: requests `c`, `c + CONNECTIONS`,
/// … sent at their due times (all at once for an infinite `rate`), at
/// most [`IN_FLIGHT`] unanswered, replies read as they arrive.
fn drive(
    conn: &mut Conn,
    hot: &[Hot],
    reqs: &[Req],
    c: usize,
    start: Instant,
    rate: f64,
) -> Result<Step, String> {
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    conn.set_nonblocking(true)?;
    let mine: Vec<usize> = (c..reqs.len()).step_by(CONNECTIONS).collect();
    let mut part =
        Step { latency: vec![0.0; reqs.len()], rtt: vec![0.0; reqs.len()], ..Step::default() };
    let mut sent_at: Vec<Option<Instant>> = vec![None; reqs.len()];
    let (mut next, mut done) = (0usize, 0usize);
    let mut blocking = false;
    while done < mine.len() {
        let now = Instant::now();
        let in_flight = next - done;
        if next < mine.len() && now >= due(mine[next]) && in_flight < IN_FLIGHT {
            let i = mine[next];
            conn.send(&line_of(hot, &reqs[i], i))?;
            let sent = Instant::now();
            sent_at[i] = Some(sent);
            part.late.push((sent - due(i)).as_secs_f64() * 1e3);
            let overdue = mine[next..].partition_point(|&j| due(j) <= sent);
            part.backlog.push(((sent - start).as_secs_f64() * 1e3, (in_flight + overdue) as f64));
            next += 1;
            continue;
        }
        // Nothing can be sent before a reply arrives: block on the read
        // rather than poll, leaving the cores to the daemon.
        let wait = next == mine.len() || in_flight >= IN_FLIGHT;
        if wait != blocking {
            conn.set_nonblocking(!wait)?;
            blocking = wait;
        }
        let before = done;
        if !conn.fill()? {
            return Err("daemon closed the connection".into());
        }
        while let Some(frame) = conn.take_frame()? {
            let arrived = Instant::now();
            let id = int(&frame.header, "id").and_then(|v| usize::try_from(v).ok());
            let Some(i) = id.filter(|&i| i < reqs.len() && sent_at[i].is_some()) else {
                return Err(format!("reply with unknown id {id:?}"));
            };
            part.latency[i] = arrived.saturating_duration_since(due(i)).as_secs_f64() * 1e3;
            part.answered.push(i);
            part.rtt[i] = (arrived - sent_at[i].expect("checked above")).as_secs_f64() * 1e3;
            part.payload_bytes += frame.payload.len() as f64;
            if !frame.ok() || source_fingerprint(&frame.payload) != reqs[i].expected {
                part.mismatches.push(i);
            }
            part.arrived.push(arrived.saturating_duration_since(start).as_secs_f64() * 1e3);
            done += 1;
        }
        if done == before && !wait {
            // Nothing arrived: sleep until the next send is due, but
            // poll for replies at least every 50µs.
            let nap = due(mine[next])
                .saturating_duration_since(Instant::now())
                .min(Duration::from_micros(50));
            thread::sleep(nap.max(Duration::from_micros(20)));
        }
    }
    conn.set_nonblocking(false)?;
    Ok(part)
}

/// Prepares `count` requests.
fn prepare(traffic: &mut Traffic, count: usize, out: &mut Outcome) -> Result<Vec<Req>, String> {
    (0..count).map(|_| traffic.next(out)).collect()
}

/// Counts every reply of `step` as an op, failing the mismatched ones.
fn check_step(out: &mut Outcome, step: &Step) {
    out.attempted += (step.latency.len() - step.mismatches.len()) as u64;
    for &i in &step.mismatches {
        out.check(false, || {
            format!("request {i} at {} rps: reply differs from a fresh engine's", step.rate)
        });
    }
}

/// Set-up: server start plus one pass over the hot set, pipelined on
/// both connections. Returns the daemon, its connections and the
/// seconds it took.
fn set_up(
    hot: &[Hot],
    hot_reqs: &[Req],
    out: &mut Outcome,
) -> Result<(Daemon, Vec<Conn>, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(ServerConfig::default())?;
    let mut conns = (0..CONNECTIONS).map(|_| daemon.connect()).collect::<Result<Vec<_>, _>>()?;
    let pass = run_step(&mut conns, hot, hot_reqs, f64::INFINITY)?;
    let seconds = t.elapsed().as_secs_f64();
    check_step(out, &pass);
    Ok((daemon, conns, seconds))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut traffic = Traffic::new(args.seed, &mut out)?;

    let hot_reqs: Vec<Req> = (0..HOT_SET)
        .map(|hot| Req { novel: None, hot, expected: traffic.hot[hot].expected })
        .collect();
    let (daemon, mut conns, first) = set_up(&traffic.hot, &hot_reqs, &mut out)?;
    let mut setups = vec![first];
    let before = Stats::fetch(&mut conns[0])?;

    if args.trace {
        return traced(args, daemon, conns, &mut traffic, &before, out);
    }

    // The two steps alternate over ROUNDS rounds, all requests prepared
    // first, so neither waits on the client and both meet every phase
    // of the shared machine.
    let base_count = (BASE_RPS * args.seconds * BASE_SHARE / ROUNDS as f64).ceil() as usize;
    let full_count = (SATURATE_PER_SECOND * args.seconds / ROUNDS as f64).ceil() as usize;
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let base = prepare(&mut traffic, base_count, &mut out)?;
        rounds.push((base, prepare(&mut traffic, full_count, &mut out)?));
    }
    let (mut latency, mut late, mut rates, mut rtt) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (base, full) in &rounds {
        // More set-up samples, on daemons of their own. The measured
        // daemon's connections close meanwhile, so the client never
        // holds more than CONNECTIONS.
        drop(conns);
        for _ in 0..SETUPS_PER_ROUND {
            let (sample, sample_conns, seconds) = set_up(&traffic.hot, &hot_reqs, &mut out)?;
            setups.push(seconds);
            drop(sample_conns);
            sample.stop()?;
        }
        conns = (0..CONNECTIONS).map(|_| daemon.connect()).collect::<Result<Vec<_>, _>>()?;
        for conn in &mut conns {
            // The daemon has accepted the connection once it answers.
            conn.call(r#"{"op":"ping"}"#)?;
        }
        let step = run_step(&mut conns, &traffic.hot, base, BASE_RPS)?;
        check_step(&mut out, &step);
        latency.extend(step.latency);
        late.extend(step.late);
        // Saturating step: the client quota in flight on both connections.
        let step = run_step(&mut conns, &traffic.hot, full, f64::INFINITY)?;
        check_step(&mut out, &step);
        rates.push(step.reply_rate());
        rtt.extend(step.rtt);
    }
    let after = Stats::fetch(&mut conns[0])?;
    drop(conns);
    daemon.stop()?;
    eprintln!(
        "perfbench: serve: base {BASE_RPS} rps: p50 {:.2} ms, p99 {:.2} ms, late mean {:.3} ms; \
         saturated: {:.0} rps, p50 round trip {:.2} ms, p99 {:.2} ms",
        median(&latency),
        quantile(&latency, 0.99),
        mean(&late),
        median(&rates),
        median(&rtt),
        quantile(&rtt, 0.99),
    );
    let hits = after.since(&before, "fingerprint_hits");
    eprintln!(
        "perfbench: serve: warm-hit share {:.3}",
        ratio(hits, after.since(&before, "fingerprint_lookups"))
    );
    out.push("setup_s", median(&setups), "s");
    out.push("ops_per_s", median(&rates), "1/s");
    out.push("p50_ms", median(&latency), "ms");
    out.push("tail_ms", tail(&latency, 0.98), "ms");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(out)
}

/// The traced run: the base rate against the daemon, then the same
/// requests replayed in-process through `Server::handle_line` on two
/// servers warmed the same way, untraced and traced.
fn traced(
    args: &Args,
    daemon: Daemon,
    mut conns: Vec<Conn>,
    traffic: &mut Traffic,
    before: &Stats,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let rate = BASE_RPS;
    let reqs = prepare(traffic, (rate * args.seconds / 2.0).ceil() as usize, &mut out)?;
    let step = run_step(&mut conns, &traffic.hot, &reqs, rate)?;
    check_step(&mut out, &step);
    let after = Stats::fetch(&mut conns[0])?;
    drop(conns);
    daemon.stop()?;

    let warm = |out: &mut Outcome| -> Result<Server, String> {
        let server = Server::new(ServerConfig::default()).map_err(|e| format!("server: {e}"))?;
        for hot in &traffic.hot {
            let reply = server.handle_line(&hot.line);
            out.check(source_fingerprint(&reply.payload) == hot.expected, || {
                "warm-up reply differs".into()
            });
        }
        Ok(server)
    };
    let (plain_server, traced_server) = (warm(&mut out)?, warm(&mut out)?);
    let mut tracer = Tracer::new(true);
    let mut untraced_ms = Vec::new();
    let mut handle_ms = vec![0.0; reqs.len()];
    for (i, req) in reqs.iter().enumerate() {
        let line = line_of(&traffic.hot, req, i);
        let t = Instant::now();
        let reply = plain_server.handle_line(&line);
        untraced_ms.push(ms_since(t));
        out.check(source_fingerprint(&reply.payload) == req.expected, || {
            format!("untraced replay {i} differs")
        });
        tracer.begin("request");
        std::hint::black_box(tracer.span("server.request_parse", || parse_json(&line)).is_ok());
        tracer.begin("server.handle");
        let t = Instant::now();
        let reply = traced_server.handle_line(&line);
        handle_ms[i] = ms_since(t);
        tracer.end();
        tracer.end();
        out.check(source_fingerprint(&reply.payload) == req.expected, || {
            format!("traced replay {i} differs")
        });
    }

    // Warm hits through the engine alone, without the protocol.
    let engine = BatchEngine::new(Analyzer::new()).with_jobs(1);
    let hot_sources: Vec<&str> = traffic.hot.iter().map(|h| h.source.as_str()).collect();
    engine.scan_sources_with_stats(&hot_sources);
    let warm_hit: Vec<f64> = hot_sources
        .iter()
        .map(|s| {
            let t = Instant::now();
            std::hint::black_box(engine.scan_sources_with_stats(&[*s]));
            ms_since(t)
        })
        .collect();

    let mut layers = Layers::default();
    layers.record_trace(&tracer, mean(&untraced_ms), mean(&step.rtt));
    let transport: Vec<f64> = step.rtt.iter().zip(&handle_ms).map(|(r, h)| r - h).collect();
    layers.set("eventloop.transport_ms", mean(&transport));
    layers.set("eventloop.backlog", mean(&step.backlog.iter().map(|s| s.1).collect::<Vec<_>>()));
    layers.set("bench.generator_late_ms", mean(&step.late));
    layers.set("batch.warm_hit_ms", mean(&warm_hit));
    layers.record_daemon(before, &after, reqs.len());
    layers.set("emit.bytes", step.payload_bytes / step.latency.len().max(1) as f64);
    eprintln!(
        "perfbench: serve: traced {} requests, {} hot, {} parsed by the daemon",
        reqs.len(),
        reqs.iter().filter(|r| r.novel.is_none()).count(),
        after.since(before, "parses"),
    );
    layers.report(&mut out);
    write_spans("serve", args.seed, &tracer);
    Ok(out)
}
