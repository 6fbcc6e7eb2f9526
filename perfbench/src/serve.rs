//! The compile-service workloads: request streams, closed-loop clients,
//! response checks, service counters, and the in-process replay of the
//! traced pass.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use gcomm_core::Strategy;
use gcomm_guard::BudgetSpec;
use gcomm_serve::cache::fnv1a;
use gcomm_serve::frame::{read_frame, write_frame};
use gcomm_serve::json::Json;
use gcomm_serve::protocol::{cache_key_material, CompileReq, Request};
use gcomm_serve::service::cold_compile_payload;
use gcomm_serve::{
    compile_request, spawn, spawn_router, Client, ClusterConfig, RouterHandle, ServerHandle,
    Service, ServiceConfig, SimSpec, DEFAULT_MAX_FRAME,
};
use gcomm_store::{FsyncPolicy, Store, StoreConfig};
use proptest::test_runner::TestRng;

use crate::inputs::{self, Class, Corpus, Req};
use crate::stats::{median, percentile, residual, windows, Zipf};
use crate::trace::Tracer;
use crate::workloads::{self, corpus_ops, nproc, par_map, timed_setups, LibOp};
use crate::{Args, Report};

/// fsync policy of `serve-mixed`: `interval:64`, one fsync per warm set's
/// worth of appends. The warm set has 64 keys, the size of the log that
/// `bench_serve --mode restart` reopens; no workload in the repository
/// fixes the interval, so it is an assumption. The server's default,
/// `always`, makes every miss wait for the disk.
const PERSIST_FSYNC: FsyncPolicy = FsyncPolicy::Interval(64);

/// Identifies one request of a stream; [`Stream::req`] rebuilds it, so the
/// checks need not keep request bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReqId {
    Warm(usize),
    Edit { module: usize, seed: u64 },
    New(u64),
    Cold { op: usize, n: u64 },
}

impl ReqId {
    fn class(self) -> Class {
        match self {
            ReqId::Warm(_) => Class::Warm,
            ReqId::Edit { .. } => Class::Edit,
            ReqId::New(_) => Class::New,
            ReqId::Cold { .. } => Class::Cold,
        }
    }
}

/// Everything a workload's requests are drawn from.
pub struct Stream {
    seed: u64,
    corpus: Corpus,
    warm: Vec<Req>,
    /// Indices into `warm` of the multi-routine modules.
    modules: Vec<usize>,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let warm = inputs::warm_set(seed);
        let modules = (0..warm.len())
            .filter(|&i| gcomm_core::incr::split_routines(&warm[i].source).len() > 1)
            .collect();
        Stream {
            seed,
            corpus: inputs::corpus(seed),
            warm,
            modules,
        }
    }

    pub fn req(&self, id: ReqId) -> Req {
        match id {
            ReqId::Warm(i) => self.warm[i].clone(),
            ReqId::Edit { module, seed } => {
                let base = &self.warm[self.modules[module]];
                let (source, _) = proptest::hpf::apply_edit(&base.source, seed);
                Req {
                    source,
                    ..base.clone()
                }
            }
            ReqId::New(round) => inputs::new_program(self.seed, round),
            ReqId::Cold { op, n } => {
                let op = &self.corpus.ops[op % self.corpus.ops.len()];
                Req {
                    source: inputs::rename(&self.corpus.programs[op.prog].1, &format!("_c{n}")),
                    strategy: op.strategy,
                    sim: op.sim.clone(),
                }
            }
        }
    }

    /// The wire form of request `id`, tagged with the protocol id `wire`.
    pub fn json(&self, id: ReqId, wire: u64) -> String {
        let r = self.req(id);
        compile_request(wire, &r.source, r.strategy, None, Some(&r.sim))
    }
}

/// The request a server builds from `json` (protocol id cleared).
fn parse_compile(json: &str) -> Result<CompileReq, String> {
    let v = Json::parse(json)?;
    match Request::parse(&v) {
        Ok(Request::Compile(mut c)) => {
            c.id = None;
            Ok(c)
        }
        Ok(other) => Err(format!("not a compile request: {other:?}")),
        Err((_, e)) => Err(e),
    }
}

/// The payload of a response (everything after `"id":…,`), when the
/// response carries protocol id `wire`.
fn payload_of(resp: &str, wire: u64) -> Option<&str> {
    resp.strip_prefix(&format!("{{\"id\":{wire},"))?
        .strip_suffix('}')
}

/// One answered request, as a client saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    id: ReqId,
    /// FNV-1a of the response payload; `None` when the response was not
    /// an `ok` answer to this request.
    hash: Option<u64>,
    start: Instant,
    lat_ms: f64,
}

/// Sends one request and records it; a transport error is recorded as a
/// failed answer, so a client keeps its place in the rounds.
fn send(
    client: &mut Client,
    stream: &Stream,
    id: ReqId,
    wire: u64,
    t: Option<&mut Tracer>,
) -> Sent {
    let json = stream.json(id, wire);
    let t0 = Instant::now();
    let resp = match t {
        Some(t) => {
            t.set_op(wire);
            t.span("client.request", || client.request(&json))
        }
        None => client.request(&json),
    };
    let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
    let hash = resp
        .ok()
        .as_deref()
        .and_then(|r| payload_of(r, wire))
        .filter(|p| p.starts_with("\"ok\":true"))
        .map(|p| fnv1a(p.as_bytes()));
    Sent {
        id,
        hash,
        start: t0,
        lat_ms,
    }
}

/// Where a workload sends its traffic.
enum Target {
    Server(ServerHandle),
    Cluster {
        router: RouterHandle,
        shards: Vec<ServerHandle>,
    },
}

impl Target {
    fn addr(&self) -> SocketAddr {
        match self {
            Target::Server(h) => h.addr(),
            Target::Cluster { router, .. } => router.addr(),
        }
    }

    fn stop(self) -> Result<(), String> {
        let err = |e: std::io::Error| format!("stopping: {e}");
        match self {
            Target::Server(h) => h.stop().map_err(err),
            Target::Cluster { router, shards } => {
                router.stop().map_err(err)?;
                shards.into_iter().try_for_each(|s| s.stop().map_err(err))
            }
        }
    }

    /// Counters from the `stats` op of the server; on the cluster, the
    /// `cluster.*` counters of the router and every other counter summed
    /// over the shards (the router counts the requests it relays too).
    fn counters(&self) -> Result<BTreeMap<String, u64>, String> {
        let (router, servers): (Option<SocketAddr>, Vec<SocketAddr>) = match self {
            Target::Server(h) => (None, vec![h.addr()]),
            Target::Cluster { router, shards } => (
                Some(router.addr()),
                shards.iter().map(|s| s.addr()).collect(),
            ),
        };
        let mut sum = BTreeMap::new();
        for addr in servers {
            for (k, v) in stats_counters(addr)? {
                *sum.entry(k).or_insert(0) += v;
            }
        }
        if let Some(addr) = router {
            sum.extend(
                stats_counters(addr)?
                    .into_iter()
                    .filter(|(k, _)| k.starts_with("cluster.")),
            );
        }
        Ok(sum)
    }
}

fn stats_counters(addr: SocketAddr) -> Result<BTreeMap<String, u64>, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connecting for stats: {e}"))?;
    let resp = c
        .request("{\"op\":\"stats\",\"stable\":true,\"id\":0}")
        .map_err(|e| format!("stats request: {e}"))?;
    let v = Json::parse(&resp)?;
    let Some(Json::Obj(counters)) = v.get("stats").and_then(|s| s.get("counters")) else {
        return Err(format!("stats response without counters: {resp}"));
    };
    Ok(counters
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect())
}

/// The first request of a server without a warm store: the paper's
/// `shallow` kernel under `comb`, a real compile, so that set-up time is
/// not all thread start-up.
fn kernel_request() -> String {
    let (_, _, src) = gcomm_kernels::all_kernels()[0];
    compile_request(
        1,
        src,
        Strategy::Global,
        None,
        Some(&SimSpec::flat("sp2", 64)),
    )
}

/// Sends a server's first request; set-up ends when it is answered `ok`.
fn first_answer(addr: SocketAddr, json: &str) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    let resp = c.request(json).map_err(|e| format!("first request: {e}"))?;
    if resp.contains("\"ok\":true") {
        Ok(())
    } else {
        Err(format!("first request answered {resp}"))
    }
}

/// The servers' configuration: the defaults, with one worker per CPU and
/// [`PERSIST_FSYNC`].
fn service_config(persist: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        jobs: nproc(),
        persist,
        persist_fsync: PERSIST_FSYNC,
        ..ServiceConfig::default()
    }
}

fn start_server(persist: Option<PathBuf>, first: &str) -> Result<Target, String> {
    let h = spawn("127.0.0.1:0", service_config(persist)).map_err(|e| format!("spawn: {e}"))?;
    first_answer(h.addr(), first)?;
    Ok(Target::Server(h))
}

/// Two single-worker shards (so the cluster has `nproc` workers in all)
/// behind a router.
fn start_cluster(first: &str) -> Result<Target, String> {
    let shard_cfg = ServiceConfig {
        jobs: 1,
        ..service_config(None)
    };
    let shards: Vec<ServerHandle> = (0..2)
        .map(|_| spawn("127.0.0.1:0", shard_cfg.clone()).map_err(|e| format!("spawn shard: {e}")))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr()).collect();
    let router = spawn_router("127.0.0.1:0", &addrs, ClusterConfig::default())
        .map_err(|e| format!("spawn router: {e}"))?;
    first_answer(router.addr(), first)?;
    Ok(Target::Cluster { router, shards })
}

/// A scratch directory under the output directory, empty.
fn scratch_dir(name: &str) -> Result<PathBuf, String> {
    let dir = workloads::out_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes the warm set into a fresh store as the service would have
/// persisted it: the request's key material and its cold payload.
fn prefill(dir: &Path, stream: &Stream) -> Result<(), String> {
    let cfg = StoreConfig {
        fsync: PERSIST_FSYNC,
        ..StoreConfig::default()
    };
    let (mut store, _) = Store::open(dir, cfg).map_err(|e| format!("opening store: {e}"))?;
    let effective = BudgetSpec::default();
    for i in 0..stream.warm.len() {
        let c = parse_compile(&stream.json(ReqId::Warm(i), 0))?;
        let payload = cold_compile_payload(&c, &effective);
        store
            .append(
                cache_key_material(&c, &effective).as_bytes(),
                payload.as_bytes(),
            )
            .map_err(|e| format!("prefilling store: {e}"))?;
    }
    Ok(())
}

/// The closed-loop cold clients: `nproc` connections taking
/// the corpus ops in turn, each renamed so it misses every cache. Each
/// `phase` of a run renames differently.
fn cold_clients(
    addr: SocketAddr,
    stream: &Stream,
    seconds: f64,
    phase: u64,
    trace: Option<&Mutex<Tracer>>,
) -> Result<Vec<Sent>, String> {
    let cursor = AtomicU64::new(phase << 40);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    run_clients(trace, |_, t| {
        let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        let mut sent = Vec::new();
        while Instant::now() < deadline {
            let n = cursor.fetch_add(1, Ordering::Relaxed);
            let id = ReqId::Cold {
                op: n as usize % stream.corpus.ops.len(),
                n,
            };
            sent.push(send(&mut client, stream, id, n, t.as_deref_mut()));
        }
        Ok(sent)
    })
}

/// The closed-loop clients of `serve-mixed`. They run in rounds of
/// [`inputs::ROUND`] requests: both first send the round's new program at
/// once (a duplicate concurrent miss), then edits and Zipf-popular warm
/// repeats in a per-client seeded order.
fn mixed_clients(
    addr: SocketAddr,
    stream: &Stream,
    seconds: f64,
    phase: u64,
    trace: Option<&Mutex<Tracer>>,
) -> Result<Vec<Sent>, String> {
    let clients = nproc();
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let zipf = Zipf::new(stream.warm.len(), inputs::ZIPF_S);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    run_clients(trace, |c, t| {
        let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"));
        let mut rng = TestRng::new(inputs::subseed(stream.seed, phase << 8 | c as u64));
        let mut sent = Vec::new();
        let mut round = 0u64;
        loop {
            if barrier.wait().is_leader() {
                stop.store(Instant::now() >= deadline, Ordering::SeqCst);
            }
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // A failed connection still takes part in the barriers, so the
            // other client cannot wait forever.
            let Ok(client) = client.as_mut() else {
                continue;
            };
            let rounds_base = phase << 32;
            for slot in 0..inputs::ROUND {
                let id = if slot == 0 {
                    ReqId::New(rounds_base | round)
                } else if inputs::EDIT_SLOTS.contains(&slot) {
                    ReqId::Edit {
                        module: rng.below(stream.modules.len() as u64) as usize,
                        seed: rng.next_u64(),
                    }
                } else {
                    ReqId::Warm(zipf.sample(&mut rng))
                };
                let wire = (c as u64) << 48 | (rounds_base | round) << 8 | slot as u64;
                sent.push(send(client, stream, id, wire, t.as_deref_mut()));
            }
            round += 1;
        }
        client?;
        Ok(sent)
    })
}

/// Runs `f(client index, tracer)` on `nproc` threads and merges what they
/// sent. With `trace`, each thread records into its own tracer, absorbed
/// into `trace` when it ends.
fn run_clients(
    trace: Option<&Mutex<Tracer>>,
    f: impl Fn(usize, &mut Option<&mut Tracer>) -> Result<Vec<Sent>, String> + Sync,
) -> Result<Vec<Sent>, String> {
    let epoch = Instant::now();
    let results: Vec<Result<Vec<Sent>, String>> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..nproc())
            .map(|c| {
                s.spawn(move || {
                    let mut own = trace.map(|_| Tracer::new(epoch));
                    let r = f(c, &mut own.as_mut());
                    if let (Some(t), Some(own)) = (trace, own) {
                        t.lock().expect("tracer lock poisoned").absorb(own);
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Checks every answer against the cold payload of the same request, each
/// distinct request compiled once, outside the timed window. Returns the
/// set of distinct key materials of the requests that are not warm.
fn check_answers(
    report: &mut Report,
    stream: &Stream,
    sent: &[Sent],
) -> Result<HashSet<u64>, String> {
    let distinct: Vec<ReqId> = sent
        .iter()
        .map(|s| s.id)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let effective = BudgetSpec::default();
    let expected: Vec<Result<(u64, u64), String>> = par_map(distinct.len(), |i| {
        let c = parse_compile(&stream.json(distinct[i], 0))?;
        let key = fnv1a(cache_key_material(&c, &effective).as_bytes());
        Ok((key, fnv1a(cold_compile_payload(&c, &effective).as_bytes())))
    });
    let mut want: HashMap<ReqId, (u64, u64)> = HashMap::new();
    for (id, e) in distinct.iter().zip(expected) {
        want.insert(*id, e?);
    }
    let mut cold_keys = HashSet::new();
    for s in sent {
        report.attempted += 1;
        let (key, hash) = want[&s.id];
        if s.id.class() != Class::Warm {
            cold_keys.insert(key);
        }
        match s.hash {
            None => report.fail(format!("{:?}: the answer is not ok", s.id)),
            Some(h) if h != hash => report.fail(format!(
                "{:?}: the answer differs from the cold payload",
                s.id
            )),
            Some(_) => {}
        }
    }
    Ok(cold_keys)
}

/// Time windows a `serve-mixed` run is cut into for its time metrics.
const WINDOWS: usize = 20;

/// The end-to-end time metrics of a client phase. The phase is cut into
/// [`WINDOWS`] windows of equal length by when each request ended. Other
/// tenants of a shared host slow whole stretches of a run; they never
/// speed one up. So each metric is read from the least disturbed quarter
/// of the windows: the request rate is the upper quartile over the
/// windows, and each latency percentile is the lower quartile over the
/// windows of that percentile in the window.
fn latency_metrics(report: &mut Report, sent: &[Sent]) {
    let Some(origin) = sent.iter().map(|s| s.start).min() else {
        return report.fail("the clients sent no request");
    };
    let ends: Vec<(f64, f64)> = sent
        .iter()
        .map(|s| ((s.start - origin).as_secs_f64() + s.lat_ms / 1e3, s.lat_ms))
        .collect();
    let span_s = ends.iter().map(|e| e.0).fold(0.0, f64::max);
    let wins = windows(&ends, span_s, WINDOWS);
    let over = |f: &dyn Fn(&[f64]) -> f64| wins.iter().map(|w| f(w)).collect::<Vec<_>>();
    let width_s = span_s / WINDOWS as f64;
    let rates = over(&|w| w.len() as f64 / width_s);
    report.metric("ops_per_s", percentile(&rates, 75.0), "1/s");
    let p50s = over(&|w| median(w));
    report.metric("latency_p50_ms", percentile(&p50s, 25.0), "ms");
    let p99s = over(&|w| percentile(w, 99.0));
    report.metric("latency_p99_ms", percentile(&p99s, 25.0), "ms");
}

/// The exact sums of `workloads::exact_metrics`, reported on every
/// workload.
fn corpus_exact(report: &mut Report, corpus: &Corpus) {
    let ops: Vec<LibOp> = corpus_ops(corpus)
        .into_iter()
        .filter(|op| op.kernel)
        .collect();
    let outs = par_map(ops.len(), |i| {
        crate::library::run_op(&ops[i].src, ops[i].strategy, &ops[i].sim).map(|(o, _)| o)
    });
    let refs: Vec<_> = outs.into_iter().map(|r| report.check(r)).collect();
    workloads::exact_metrics(report, &ops, &refs);
}

pub fn serve_mixed(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let stream = Stream::new(args.seed);
    let store_dir = scratch_dir("store")?;
    prefill(&store_dir, &stream)?;
    // The first request is the most popular warm key, answered from the
    // recovered store.
    let first = stream.json(ReqId::Warm(0), 1);
    let target = timed_setups(
        report,
        || start_server(Some(store_dir.clone()), &first),
        Target::stop,
    )?;
    let result = if args.trace {
        traced(report, tracer, &stream, &target, args, Traffic::Mixed, true)
    } else {
        let r = mixed_clients(target.addr(), &stream, args.seconds, 0, None);
        r.and_then(|sent| {
            latency_metrics(report, &sent);
            check_answers(report, &stream, &sent).map(|_| ())
        })
    };
    target.stop()?;
    let _ = std::fs::remove_dir_all(&store_dir);
    result?;
    if !args.trace {
        corpus_exact(report, &stream.corpus);
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traffic {
    Cold,
    Mixed,
}

/// The counters the traced pass reports from the `stats` op.
const SERVE_COUNTERS: [&str; 12] = [
    "serve.requests",
    "serve.compiles",
    "serve.errors",
    "serve.overloaded",
    "cache.hit",
    "cache.miss",
    "cache.evict",
    "query.hit",
    "query.miss",
    "query.cutoff",
    "store.append",
    "store.fsync",
];

/// The traced pass of a service workload: the clients once untraced and
/// once with a span around every request (their difference is the tracing
/// overhead), the service counters, then the in-process replay of the
/// same requests and the library stages on the programs they carry.
fn traced(
    report: &mut Report,
    tracer: &mut Tracer,
    stream: &Stream,
    target: &Target,
    args: &Args,
    traffic: Traffic,
    library: bool,
) -> Result<(), String> {
    let phase_s = args.seconds * 0.2;
    let compiles_before = target
        .counters()?
        .get("serve.compiles")
        .copied()
        .unwrap_or(0);
    let run = |phase: u64, t: Option<&Mutex<Tracer>>| match traffic {
        Traffic::Cold => cold_clients(target.addr(), stream, phase_s, phase, t),
        Traffic::Mixed => mixed_clients(target.addr(), stream, phase_s, phase, t),
    };
    let plain = run(1, None)?;
    let client_trace = Mutex::new(Tracer::new(Instant::now()));
    let traced_sent = run(2, Some(&client_trace))?;
    let mut sent = plain.clone();
    sent.extend(&traced_sent);
    let cold_keys = check_answers(report, stream, &sent)?;

    let counters = target.counters()?;
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    for k in SERVE_COUNTERS {
        report.metric(k, get(k) as f64, "count");
    }
    let ratio = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    report.metric(
        "cache.hit_ratio",
        ratio(get("cache.hit"), get("cache.miss")),
        "ratio",
    );
    report.metric(
        "query.hit_ratio",
        ratio(get("query.hit"), get("query.miss")),
        "ratio",
    );
    // Duplicate compiles: compiles during the client phases beyond one per
    // distinct missed key.
    report.metric(
        "serve.dup_compiles",
        (get("serve.compiles") - compiles_before).saturating_sub(cold_keys.len() as u64) as f64,
        "count",
    );
    // Tracing overhead on the client: traced median minus untraced.
    let p50 = |v: &[Sent]| median(&v.iter().map(|s| s.lat_ms * 1e3).collect::<Vec<_>>());
    report.metric(
        "trace.client_overhead_us",
        p50(&traced_sent) - p50(&plain),
        "us",
    );
    tracer.absorb(client_trace.into_inner().expect("tracer lock poisoned"));

    let per_class = class_medians(&plain);
    replay(report, tracer, stream, &plain, &per_class, traffic)?;
    router_hop(report, tracer, stream, &plain)?;
    if !library {
        return Ok(());
    }
    // The library stages on the programs the requests carried.
    let ops = lib_ops(stream, &plain, 400);
    let (refs, _) = workloads::reference(report, &ops);
    workloads::library_layers(report, tracer, &ops, &refs, args.seconds * 0.3)
}

/// The service part of `compile-corpus`'s traced pass: its op mix sent
/// to a server, every request renamed so it misses the payload cache and
/// the query memo, for the service-layer metrics.
pub fn corpus_service_layers(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let stream = Stream::new(args.seed);
    let target = start_server(None, &kernel_request())?;
    let r = traced(report, tracer, &stream, &target, args, Traffic::Cold, false);
    target.stop()?;
    r
}

fn class_medians(sent: &[Sent]) -> BTreeMap<Class, f64> {
    let mut by: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for s in sent {
        by.entry(s.id.class()).or_default().push(s.lat_ms * 1e3);
    }
    by.into_iter().map(|(c, v)| (c, median(&v))).collect()
}

/// Library ops for the distinct routines of (up to `cap`) requests.
fn lib_ops(stream: &Stream, sent: &[Sent], cap: usize) -> Vec<LibOp> {
    let distinct: BTreeSet<ReqId> = sent.iter().map(|s| s.id).collect();
    let mut ops = Vec::new();
    for id in distinct.into_iter().take(cap) {
        let r = stream.req(id);
        for chunk in gcomm_core::incr::split_routines(&r.source) {
            ops.push(LibOp {
                src: chunk.src.to_string(),
                strategy: r.strategy,
                sim: r.sim.clone(),
                kernel: false,
            });
        }
    }
    ops
}

/// Replays the first 2,000 logged requests of the untraced client phase
/// in-process against a fresh service configured like the workload's,
/// with a span around each public call a request passes through.
fn replay(
    report: &mut Report,
    tracer: &mut Tracer,
    stream: &Stream,
    sent: &[Sent],
    client_us: &BTreeMap<Class, f64>,
    traffic: Traffic,
) -> Result<(), String> {
    let persist = traffic == Traffic::Mixed;
    let svc_dir = scratch_dir("replay-service")?;
    let append_dir = scratch_dir("replay-append")?;
    let result = (|| {
        if persist {
            prefill(&svc_dir, stream)?;
        }
        let svc = Service::open(service_config(persist.then(|| svc_dir.clone())))
            .map_err(|e| format!("opening the replay service: {e}"))?;
        let store_cfg = StoreConfig {
            fsync: if persist {
                PERSIST_FSYNC
            } else {
                FsyncPolicy::Off
            },
            ..StoreConfig::default()
        };
        let (mut store, _) =
            Store::open(&append_dir, store_cfg).map_err(|e| format!("opening store: {e}"))?;
        let effective = BudgetSpec::default();
        let mut t = Tracer::new(Instant::now());
        for (n, s) in sent.iter().take(2_000).enumerate() {
            let wire = n as u64 + 1;
            let json = stream.json(s.id, wire);
            t.set_op(wire);
            let root = t.enter(s.id.class().name());
            let req = t.span("serve.json_parse", || {
                Json::parse(&json).map(|v| Request::parse(&v))
            });
            let Ok(Ok(Request::Compile(req))) = req else {
                t.exit(root);
                return Err(format!("{:?}: the request does not parse", s.id));
            };
            t.span("serve.frame", || -> Result<(), String> {
                let mut buf = Vec::with_capacity(json.len() + 4);
                write_frame(&mut buf, json.as_bytes()).map_err(|e| e.to_string())?;
                read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
                Ok(())
            })?;
            let probe = t.span("serve.cache_probe", || svc.try_cached(&req));
            let missed = probe.is_none();
            let (resp, rep) = match probe {
                Some(hit) => hit,
                None => t.span("serve.compile", || svc.compile(&req)),
            };
            svc.finish(svc.begin(), rep);
            t.exit(root);
            if missed {
                let mut cold_req = req.clone();
                cold_req.id = None;
                let cold = t.span("serve.cold_payload", || {
                    cold_compile_payload(&cold_req, &effective)
                });
                if payload_of(&resp, wire) != Some(cold.as_str()) {
                    report.fail(format!(
                        "{:?}: the replayed answer differs from the cold payload",
                        s.id
                    ));
                }
                let key = cache_key_material(&cold_req, &effective);
                t.span("store.append", || {
                    store.append(key.as_bytes(), cold.as_bytes())
                })
                .map_err(|e| format!("store append: {e}"))?;
            }
        }
        let by = t.by_name();
        let med = |name: &str| by.get(name).map_or(0.0, |d| median(&d.total_us));
        for (span, metric) in [
            ("serve.json_parse", "serve.json_parse_us"),
            ("serve.frame", "serve.frame_us"),
            ("serve.cache_probe", "serve.cache_probe_us"),
            ("serve.compile", "serve.compile_us"),
            ("serve.cold_payload", "serve.cold_payload_us"),
            ("store.append", "store.append_us"),
        ] {
            report.metric(metric, med(span), "us");
        }
        // What the client saw beyond the in-process parts, for the
        // traffic's commonest class: hits on serve-mixed, renamed misses
        // on the corpus.
        let (class, compile) = match traffic {
            Traffic::Mixed => (Class::Warm, 0.0),
            Traffic::Cold => (Class::Cold, med("serve.compile")),
        };
        let parts = [
            med("serve.json_parse"),
            med("serve.frame"),
            med("serve.cache_probe"),
            compile,
        ];
        report.metric(
            "serve.transport_queue_us",
            residual(client_us.get(&class).copied().unwrap_or(0.0), &parts),
            "us",
        );
        tracer.absorb(t);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&svc_dir);
    let _ = std::fs::remove_dir_all(&append_dir);
    result
}

/// The router's cost on a hit: the same request sent through the router
/// and straight to the shard that owns it, alternately; the difference of
/// the medians. Runs on a two-shard cluster of its own and reports that
/// cluster's routing counters, which cover only these requests, each
/// repeated until its key is hot.
fn router_hop(
    report: &mut Report,
    tracer: &mut Tracer,
    stream: &Stream,
    sent: &[Sent],
) -> Result<(), String> {
    let cluster = start_cluster(&kernel_request())?;
    let result = (|| {
        let Target::Cluster { router, shards } = &cluster else {
            unreachable!("router_hop runs on a cluster");
        };
        let sample: Vec<ReqId> = sent
            .iter()
            .map(|s| s.id)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .take(32)
            .collect();
        let mut via = Client::connect(router.addr()).map_err(|e| format!("connecting: {e}"))?;
        let mut direct: Vec<Client> = shards
            .iter()
            .map(|s| Client::connect(s.addr()).map_err(|e| format!("connecting: {e}")))
            .collect::<Result<_, _>>()?;
        let ring = gcomm_serve::cluster::Ring::new(shards.len(), ClusterConfig::default().vnodes);
        let effective = BudgetSpec::default();
        let (mut hop, mut straight) = (Vec::new(), Vec::new());
        let mut t = Tracer::new(Instant::now());
        for &id in &sample {
            let json = stream.json(id, 7);
            let c = parse_compile(&json)?;
            let owner = ring.primary(fnv1a(cache_key_material(&c, &effective).as_bytes()));
            via.request(&json).map_err(|e| format!("warming: {e}"))?;
            for _ in 0..8 {
                let t0 = Instant::now();
                t.span("cluster.router", || via.request(&json))
                    .map_err(|e| format!("request: {e}"))?;
                hop.push(t0.elapsed().as_secs_f64() * 1e6);
                let t0 = Instant::now();
                t.span("cluster.direct", || direct[owner].request(&json))
                    .map_err(|e| format!("request: {e}"))?;
                straight.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        report.metric(
            "cluster.router_hop_us",
            median(&hop) - median(&straight),
            "us",
        );
        tracer.absorb(t);
        let counters = cluster.counters()?;
        for k in ["cluster.replicated", "cluster.replica_hit", "cluster.retry"] {
            report.metric(k, counters.get(k).copied().unwrap_or(0) as f64, "count");
        }
        let per_shard = shards
            .iter()
            .map(|s| {
                Ok(stats_counters(s.addr())?
                    .get("serve.requests")
                    .copied()
                    .unwrap_or(0))
            })
            .collect::<Result<Vec<u64>, String>>()?;
        let total: u64 = per_shard.iter().sum();
        report.metric(
            "cluster.max_shard_share",
            *per_shard.iter().max().unwrap_or(&0) as f64 / total.max(1) as f64,
            "ratio",
        );
        Ok(())
    })();
    cluster.stop()?;
    result
}
