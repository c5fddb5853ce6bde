//! `serve-mixed`: an in-process quvad on loopback under a closed loop
//! of two connections (the protocol allows one request in flight per
//! connection) against two workers.
//!
//! About four requests in five repeat a fixed hot set of compile, audit
//! and simulate specs warmed before timing (cache hits). The rest are
//! cold (cache misses): simulate jobs with never-repeated Monte-Carlo
//! seeds, and compile/audit jobs on never-repeated `rnd-sd:N:C` /
//! `rnd-ld:N:C` specs. `--seed` drives the frame stream and every cold
//! draw. The daemon runs its default configuration, so its bounded FIFO
//! result cache now and then evicts a hot entry and the measured hit
//! ratio sits just under 0.8; memory stays bounded however long a run.
//!
//! Oracle: every result fragment is byte-equal to an in-process
//! `exec::execute` of the same spec (hot fragments compared byte for
//! byte, cold ones by FNV-1a fingerprint, so the client keeps a few
//! bytes per request and the memory high-water mark is the daemon's). A traced run also replays a
//! sample of the identical frames through the public stage functions
//! (`parse_request`, `exec::resolve`, `ResultCache::get`/`insert`,
//! `envelope_of`, `exec::execute`, `Response::render`); the client
//! latency those stages leave unexplained is queue wait plus transport.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use quva_analysis::{envelope_of, CostModel};
use quva_serve::exec::{execute, resolve};
use quva_serve::protocol::{parse_request, JobKind, RequestKind, Response};
use quva_serve::{ResultCache, Server, ServerConfig, ServerHandle};
use quva_sim::McEngine;

use crate::layers::{Layers, Slot};
use crate::util::{cpus, fnv64, micros, par_map, percentile, Rng};
use crate::{repeat_setup, Args, Outcome, Trace};

/// The hot set: (kind, policy, benchmark, trials, seed), all on q20.
const HOT: [(&str, &str, &str, u64, u64); 12] = [
    ("compile", "vqm", "bv:8", 0, 0),
    ("compile", "vqa-vqm", "qft:8", 0, 0),
    ("compile", "baseline", "ghz:10", 0, 0),
    ("compile", "vqm-mah:4", "alu", 0, 0),
    ("audit", "vqm", "bv:10", 0, 0),
    ("audit", "vqa-vqm", "ghz:8", 0, 0),
    ("audit", "baseline", "qft:6", 0, 0),
    ("audit", "vqm", "triswap", 0, 0),
    ("simulate", "vqm", "ghz:6", 20_000, 1),
    ("simulate", "vqa-vqm", "bv:8", 20_000, 2),
    ("simulate", "baseline", "qft:6", 20_000, 3),
    ("simulate", "vqm", "alu", 20_000, 4),
];
/// One request in `COLD_ONE_IN` is cold; far from one in two, so the
/// p50 never straddles the hit/miss boundary.
const COLD_ONE_IN: usize = 5;
const COLD_SIM_TRIALS: u64 = 5_000;
const COLD_KINDS: [&str; 2] = ["compile", "audit"];
const COLD_POLICIES: [&str; 3] = ["baseline", "vqm", "vqa-vqm"];
const COLD_FAMILIES: [&str; 2] = ["rnd-sd", "rnd-ld"];
const COLD_QUBITS: std::ops::RangeInclusive<usize> = 6..=16;
const COLD_CNOTS: std::ops::RangeInclusive<usize> = 16..=64;
const CONNECTIONS: usize = 2;
const SETUP_REPS: usize = 5;
/// Throughput is the median of ok responses per window of this length.
const RATE_WINDOW_S: f64 = 0.5;
/// Every `REPLAY_EVERY`-th request of a connection is replayed.
const REPLAY_EVERY: u64 = 16;

fn frame(id: &str, kind: &str, policy: &str, bench: &str, trials: u64, seed: u64) -> String {
    let mut f = format!(
        "{{\"id\":\"{id}\",\"kind\":\"{kind}\",\"device\":\"q20\",\"policy\":\"{policy}\",\
         \"benchmark\":\"{bench}\""
    );
    if kind == "simulate" {
        f.push_str(&format!(",\"trials\":{trials},\"seed\":{seed}"));
    }
    f.push('}');
    f
}

fn hot_frame(id: &str, h: usize) -> String {
    let (kind, policy, bench, trials, seed) = HOT[h];
    frame(id, kind, policy, bench, trials, seed)
}

/// The never-repeated compile/audit specs: (kind, policy, benchmark).
type Pool = [(&'static str, &'static str, String)];

/// Every never-repeated compile/audit spec, in a seeded order.
fn cold_pool(rng: &mut Rng) -> Vec<(&'static str, &'static str, String)> {
    let mut pool = Vec::new();
    for kind in COLD_KINDS {
        for policy in COLD_POLICIES {
            for family in COLD_FAMILIES {
                for n in COLD_QUBITS {
                    for c in COLD_CNOTS {
                        pool.push((kind, policy, format!("{family}:{n}:{c}")));
                    }
                }
            }
        }
    }
    rng.shuffle(&mut pool);
    pool
}

/// What one frame asks for, compact enough to keep per request.
#[derive(Debug, Clone, Copy)]
enum Spec {
    Hot(usize),
    Pool(usize),
    Simulate { policy: usize, seed: u64 },
}

fn spec_frame(id: &str, spec: Spec, pool: &Pool) -> String {
    match spec {
        Spec::Hot(h) => hot_frame(id, h),
        Spec::Pool(i) => {
            let (kind, policy, bench) = &pool[i];
            frame(id, kind, policy, bench, 0, 0)
        }
        Spec::Simulate { policy, seed } => frame(
            id,
            "simulate",
            COLD_POLICIES[policy],
            "ghz:6",
            COLD_SIM_TRIALS,
            seed,
        ),
    }
}

/// The seeded frame stream of one connection.
struct Stream<'p> {
    conn: usize,
    rng: Rng,
    pool: &'p Pool,
    next_cold: usize,
    next_seed: u64,
}

impl Stream<'_> {
    fn next(&mut self) -> Spec {
        if self.rng.below(COLD_ONE_IN) != 0 {
            return Spec::Hot(self.rng.below(HOT.len()));
        }
        // connections take alternate pool entries, so specs never repeat
        let slot = self.next_cold * CONNECTIONS + self.conn;
        if self.rng.below(2) == 0 && slot < self.pool.len() {
            self.next_cold += 1;
            return Spec::Pool(slot);
        }
        self.next_seed += 1;
        Spec::Simulate {
            policy: self.rng.below(COLD_POLICIES.len()),
            seed: self.next_seed,
        }
    }
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

type Conn = (TcpStream, BufReader<TcpStream>);

fn roundtrip(conn: &mut Conn, line: &str) -> Result<String, String> {
    conn.0
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    match conn.1.read_line(&mut response) {
        Ok(0) => Err("connection closed".into()),
        Ok(_) => Ok(response.trim_end().to_string()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// The result fragment of an `ok` response to request `id`.
fn fragment<'r>(response: &'r str, id: &str) -> Option<&'r str> {
    response
        .strip_prefix(&format!("{{\"id\":\"{id}\",\"status\":\"ok\",\"result\":"))?
        .strip_suffix('}')
}

/// Pulls `"key":<number>` out of a one-line JSON object.
fn number(json: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &json[json.find(&tag)? + tag.len()..];
    rest[..rest.find([',', '}']).unwrap_or(rest.len())]
        .trim()
        .parse()
        .ok()
}

struct Live {
    handle: ServerHandle,
    conns: Vec<Conn>,
    /// The warm-up response fragment of each hot spec.
    warm: Vec<String>,
}

fn spawn(threads: usize) -> Result<Live, String> {
    let handle = Server::spawn(ServerConfig {
        workers: threads,
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot spawn quvad: {e}"))?;
    let addr = handle.local_addr().ok_or("quvad has no TCP address")?.to_string();
    let mut conns = (0..CONNECTIONS.min(threads))
        .map(|_| connect(&addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut warm = Vec::new();
    for h in 0..HOT.len() {
        let id = format!("warm-{h}");
        let response = roundtrip(&mut conns[0], &hot_frame(&id, h))?;
        let frag = fragment(&response, &id).ok_or(format!("warm-up {h} failed: {response}"))?;
        warm.push(frag.to_string());
    }
    Ok(Live { handle, conns, warm })
}

fn stop(live: Live) {
    drop(live.conns);
    live.handle.shutdown();
    live.handle.join();
}

#[derive(Default)]
struct Tally {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    ok: u64,
    failed: u64,
    /// The first fragment each hot spec returned; later ones must match.
    first_hot: Vec<Option<String>>,
    /// Each cold request and the FNV-1a fingerprint of its fragment.
    cold: Vec<(Spec, u64)>,
    /// (request, client latency) of the requests a traced run replays.
    sampled: Vec<(Spec, f64)>,
    /// Completion time of each ok response, in seconds from the start.
    ok_at: Vec<f64>,
}

fn client(mut conn: Conn, mut stream: Stream<'_>, from: Instant, until: Instant, sample: bool) -> Tally {
    let mut t = Tally {
        first_hot: vec![None; HOT.len()],
        ..Tally::default()
    };
    let mut count: u64 = 0;
    while Instant::now() < until {
        let spec = stream.next();
        let id = format!("c{}-{count}", stream.conn);
        count += 1;
        let line = spec_frame(&id, spec, stream.pool);
        let start = Instant::now();
        let response = roundtrip(&mut conn, &line);
        let us = micros(start);
        if let Spec::Hot(_) = spec {
            t.hit_us.push(us);
        } else {
            t.miss_us.push(us);
        }
        let ok = match response.as_deref().map(|r| fragment(r, &id)) {
            Ok(Some(frag)) => match spec {
                Spec::Hot(h) => t.first_hot[h].get_or_insert_with(|| frag.to_string()) == frag,
                _ => {
                    t.cold.push((spec, fnv64(frag.as_bytes())));
                    true
                }
            },
            other => {
                eprintln!("ledger: {id}: {other:?}");
                false
            }
        };
        if ok {
            t.ok += 1;
            t.ok_at.push(from.elapsed().as_secs_f64());
        } else {
            t.failed += 1;
        }
        if sample && count.is_multiple_of(REPLAY_EVERY) {
            t.sampled.push((spec, us));
        }
    }
    t
}

/// The reference fragment: an in-process `exec::execute` of the frame.
fn oracle(line: &str) -> Result<String, String> {
    let request = parse_request(line).map_err(|e| e.message)?;
    let RequestKind::Job(spec) = request.kind else {
        return Err("not a job frame".into());
    };
    execute(&resolve(&spec)?, McEngine::sequential())
}

/// Replays one frame through the stage functions the server calls,
/// charging each to its slot; returns the executed result fragment
/// when the frame missed the cache.
fn replay(line: &str, cache: &ResultCache, layers: &Layers) -> Result<Option<Arc<str>>, String> {
    let request = layers
        .time(Slot::ServeDecode, || parse_request(line))
        .map_err(|e| e.message)?;
    let RequestKind::Job(spec) = request.kind else {
        return Err("not a job frame".into());
    };
    let job = layers.time(Slot::ServeResolve, || resolve(&spec))?;
    let (result, executed) = match layers.time(Slot::ServeCacheGet, || cache.get(&job.key)) {
        Some(hit) => (hit, None),
        None => {
            layers.time(Slot::ServeEnvelope, || {
                envelope_of(
                    &job.device,
                    job.benchmark.circuit(),
                    spec.trials,
                    &CostModel::default(),
                )
            });
            let slot = match spec.kind {
                JobKind::Compile => Slot::ServeExecCompile,
                JobKind::Audit => Slot::ServeExecAudit,
                JobKind::Simulate => Slot::ServeExecSimulate,
            };
            let text = layers.time(slot, || execute(&job, McEngine::new(1)))?;
            let rendered: Arc<str> = Arc::from(text.as_str());
            layers.time(Slot::ServeCacheInsert, || {
                cache.insert(job.key.clone(), Arc::clone(&rendered))
            });
            (Arc::clone(&rendered), Some(rendered))
        }
    };
    let response = layers.time(Slot::ServeEncode, || {
        Response::Ok {
            id: request.id,
            result: result.to_string(),
        }
        .render()
    });
    std::hint::black_box(response);
    Ok(executed)
}

fn server_p99s(exposition: &str) -> String {
    exposition
        .lines()
        .filter(|l| l.starts_with("quvad_latency_us{") && l.contains("quantile=\"0.99\""))
        .filter_map(|l| {
            let verb = l.split("verb=\"").nth(1)?.split('"').next()?;
            let value = l.rsplit(' ').next()?;
            (value != "0").then(|| format!("{verb} {value} us"))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

pub fn run(args: &Args, layers: &Layers) -> Result<Outcome, String> {
    let threads = CONNECTIONS.min(cpus());
    layers.set_tracing(args.trace);
    let (mut live, setup_s, setup_ns) = repeat_setup(
        SETUP_REPS,
        || layers.time(Slot::SetupServe, || spawn(threads)),
        stop,
    )?;
    layers.set_tracing(false);

    let mut rng = Rng::new(args.seed);
    let pool = cold_pool(&mut rng);
    let seed_base = 10_000 + rng.next_u64() % 1_000_000_000;
    let before = roundtrip(&mut live.conns[0], "{\"id\":\"stats-0\",\"kind\":\"stats\"}")?;

    let start = Instant::now();
    let until = start + Duration::from_secs_f64(args.seconds);
    let conns = std::mem::take(&mut live.conns);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(conn, c)| {
                let stream = Stream {
                    conn,
                    rng: Rng::new(rng.next_u64()),
                    pool: &pool,
                    next_cold: 0,
                    next_seed: seed_base + conn as u64 * 1_000_000_000_000,
                };
                s.spawn(move || client(c, stream, start, until, args.trace))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_default())
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut probe = connect(&live.handle.local_addr().ok_or("no address")?.to_string())?;
    let after = roundtrip(&mut probe, "{\"id\":\"stats-1\",\"kind\":\"stats\"}")?;
    let exposition = live.handle.exposition();
    drop(probe);
    let warm = std::mem::take(&mut live.warm);
    stop(live);

    let delta = |key: &str| number(&after, key).unwrap_or(0.0) - number(&before, key).unwrap_or(0.0);
    let hit_ratio = delta("cache_hits") / (delta("cache_hits") + delta("cache_misses")).max(1.0);

    // oracle: hot fragments (warm-up and live) and every cold fragment
    let mut failed: u64 = tallies.iter().map(|t| t.failed).sum();
    for (h, warmed) in warm.iter().enumerate() {
        let expected = oracle(&hot_frame("oracle", h))?;
        let seen = tallies.iter().filter_map(|t| t.first_hot[h].as_ref());
        let bad = std::iter::once(warmed)
            .chain(seen)
            .filter(|f| **f != expected)
            .count();
        if bad > 0 {
            eprintln!("ledger: hot spec {h} differs from its in-process execution");
        }
        failed += bad as u64;
    }
    let cold: Vec<(Spec, u64)> = tallies.iter().flat_map(|t| t.cold.iter().copied()).collect();
    let matches = par_map(threads, &cold, |&(spec, fingerprint)| {
        oracle(&spec_frame("oracle", spec, &pool)).is_ok_and(|f| fnv64(f.as_bytes()) == fingerprint)
    });
    for ((spec, _), _) in cold.iter().zip(&matches).filter(|(_, ok)| !**ok) {
        eprintln!("ledger: cold response differs from its in-process execution: {spec:?}");
    }
    failed += matches.iter().filter(|ok| !**ok).count() as u64;

    // quality of the hot set's compiled outputs, from the live responses
    let esp: Vec<f64> = warm
        .iter()
        .filter_map(|f| number(f, "analytic_pst").or_else(|| number(f, "esp_point")))
        .collect();
    let swaps = warm.iter().filter_map(|f| number(f, "swaps")).sum::<f64>() as u64;

    let mut hit_us: Vec<f64> = tallies.iter().flat_map(|t| t.hit_us.iter().copied()).collect();
    let mut miss_us: Vec<f64> = tallies.iter().flat_map(|t| t.miss_us.iter().copied()).collect();
    hit_us.sort_by(f64::total_cmp);
    miss_us.sort_by(f64::total_cmp);
    println!(
        "# client p50: hit {:.1} us over {} samples, miss {:.1} us over {} samples; \
         cache hit ratio {hit_ratio:.4}",
        percentile(&hit_us, 0.5),
        hit_us.len(),
        percentile(&miss_us, 0.5),
        miss_us.len()
    );
    println!("# server p99 by verb: {}", server_p99s(&exposition));

    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let mut per_window = vec![0u64; (args.seconds / RATE_WINDOW_S) as usize];
    for at in tallies.iter().flat_map(|t| &t.ok_at) {
        if let Some(n) = per_window.get_mut((at / RATE_WINDOW_S) as usize) {
            *n += 1;
        }
    }
    let mut outcome = Outcome {
        threads,
        connections: tallies.len(),
        attempted: ok + tallies.iter().map(|t| t.failed).sum::<u64>(),
        failed,
        setup_s,
        units: ok as f64,
        elapsed_s: elapsed,
        rates: per_window.iter().map(|&n| n as f64 / RATE_WINDOW_S).collect(),
        latencies_us: hit_us.into_iter().chain(miss_us).collect(),
        esp,
        swaps,
        trace: None,
    };
    if args.trace {
        outcome.trace = Some(replay_all(&tallies, &pool, &warm, layers, setup_ns, hit_ratio)?);
    }
    Ok(outcome)
}

/// Replays the sampled frames twice, untraced and traced, each against
/// its own cache warmed with the hot set, alternating which goes first.
fn replay_all(
    tallies: &[Tally],
    pool: &Pool,
    warm: &[String],
    layers: &Layers,
    setup_ns: f64,
    cache_hit_ratio: f64,
) -> Result<Trace, String> {
    let warmed = || -> Result<ResultCache, String> {
        let config = ServerConfig::default();
        let cache = ResultCache::new(config.cache_shards, config.cache_capacity_per_shard);
        for (h, frag) in warm.iter().enumerate() {
            let request = parse_request(&hot_frame("warm", h)).map_err(|e| e.message)?;
            let RequestKind::Job(spec) = request.kind else {
                return Err("hot frame is not a job".into());
            };
            cache.insert(resolve(&spec)?.key, Arc::from(frag.as_str()));
        }
        Ok(cache)
    };
    let (plain, timed) = (warmed()?, warmed()?);
    let sampled: Vec<(String, f64)> = tallies
        .iter()
        .flat_map(|t| &t.sampled)
        .map(|&(spec, us)| (spec_frame("replay", spec, pool), us))
        .collect();
    let (mut plain_ns, mut timed_ns, mut client_ns) = (0.0, 0.0, 0.0);
    let (mut trials, mut swaps, mut executed_count) = (0.0, 0.0, 0u64);
    for (i, (line, us)) in sampled.iter().enumerate() {
        for traced in [i % 2 == 0, i % 2 != 0] {
            layers.set_tracing(traced);
            let start = Instant::now();
            let executed = replay(line, if traced { &timed } else { &plain }, layers)?;
            let ns = start.elapsed().as_nanos() as f64;
            layers.set_tracing(false);
            if traced {
                timed_ns += ns;
                if let Some(frag) = executed {
                    trials += number(&frag, "trials").unwrap_or(0.0);
                    swaps += number(&frag, "swaps").unwrap_or(0.0);
                    executed_count += 1;
                }
            } else {
                plain_ns += ns;
            }
        }
        client_ns += us * 1e3;
    }
    let ops = sampled.len() as u64;
    Ok(Trace {
        measured_ns: client_ns,
        ops,
        setup_ns,
        overhead: timed_ns / plain_ns - 1.0,
        route_swaps: swaps / executed_count.max(1) as f64,
        trials: trials / ops.max(1) as f64,
        cache_hit_ratio,
    })
}
