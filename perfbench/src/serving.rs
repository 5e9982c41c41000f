//! `serve-int` and `serve-frontend`: what a client of `quq-serve` sees.
//!
//! * `serve-int` saves the calibrated integer ViT-S as an `auto` artifact,
//!   cold-starts the server from it (`artifact_state(path, "int")` +
//!   `Server::start_with_state`) and drives three phases: **light**, a
//!   seeded open-loop Poisson schedule at [`LIGHT_RATE`] (all interactive,
//!   tenant `a`); a saturating **closed loop**; and **overload**, Poisson
//!   at [`OVERLOAD_RATE`] (25% interactive tenant `a`, 75% batch tenant
//!   `b`, every request with a 500 ms deadline).
//! * `serve-frontend` serves the small test model on `Fp32Provider`, where
//!   a forward costs ~0.2 ms and the reactor, framing, protocol, scheduler
//!   and recorder do most of the work: a closed loop (2 connections × 32
//!   pipelined requests), then an open loop at [`FRONTEND_RATE`].
//!
//! Open-loop latencies run from each request's *due* time, so a stalled
//! generator charges the wait to the requests behind it; how late the
//! generator itself ran is reported as `gen.lag_*`. Every OK reply is
//! compared bit for bit with the offline forward of its image.

use crate::arrivals::{self, Arrival};
use crate::common::{bits, calibrate_w6a6, image_set, secs, test_model, vit_s, Outcome, Tally};
use crate::layers::{self, Traced};
use crate::report::OUT_DIR;
use crate::stats;
use crate::trace::{ProbeProvider, Recorder, SpanRec};
use quq_accel::{IntegerBackend, WeightQubCache};
use quq_obs::Snapshot;
use quq_serve::protocol::{decode_response, encode_infer_request_with, write_frame};
use quq_serve::{
    artifact_state, BackendProvider, Class, Client, Fp32Provider, FrameDecoder, InferOptions,
    InferResponse, IntegerProvider, ModelState, ServeConfig, Server,
};
use quq_store::{Artifact, ArtifactWriter, WriteOptions};
use quq_tensor::Tensor;
use quq_vit::VitModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Images in each workload's seeded set.
pub const IMAGES: usize = 32;
/// `serve-int` set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// `serve-frontend` set-up repetitions (each takes a few milliseconds).
pub const FRONTEND_SETUP_REPS: usize = 9;
/// `serve-int` light phase: offered interactive requests per second,
/// about 40% of the served capacity at batch 1 (~20 img/s on 2 threads).
pub const LIGHT_RATE: f64 = 8.0;
/// `serve-int` overload phase: offered requests per second, about twice
/// the served capacity.
pub const OVERLOAD_RATE: f64 = 40.0;
/// `serve-int`: share of the run spent in the light phase.
pub const LIGHT_SHARE: f64 = 0.6;
/// `serve-int`: share of the run spent in the saturating closed loop.
pub const CLOSED_SHARE: f64 = 0.15;
/// `serve-int` closed loop: requests in flight per connection (two
/// connections keep two full batches queued).
pub const INT_WINDOW: usize = 8;
/// `serve-int` overload phase: share of interactive requests.
pub const OVERLOAD_INTERACTIVE: f64 = 0.25;
/// Deadline carried by every overload request, and the goodput limit.
pub const DEADLINE: Duration = Duration::from_millis(500);
/// `serve-frontend` open-loop rate, requests per second on one
/// connection: about a quarter of the closed-loop rate measured when the
/// benchmark was written (see the README).
pub const FRONTEND_RATE: f64 = 1200.0;
/// `serve-frontend` closed loop: connections × pipelined window.
pub const CLOSED_CONNS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const CLOSED_WINDOW: usize = 32;
/// How long a phase waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(3);
/// Share of a traced run each of the six trace-overhead bursts takes.
const BURST_SHARE: f64 = 0.05;
/// Window over which closed-loop completion rates are counted.
const RATE_WINDOW: Duration = Duration::from_millis(500);
/// Backlog growth (requests) beyond which an open-loop phase is invalid.
pub const BACKLOG_LIMIT: f64 = 4.0;

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// OK and bit-identical.
    Ok,
    /// OVERLOADED or DEADLINE.
    Refused { deadline: bool },
    /// Transport error, ERROR reply, missing reply or wrong logits.
    Failed,
}

/// One request's record.
#[derive(Debug, Clone, Copy)]
struct Done {
    fate: Fate,
    interactive: bool,
    /// Reply time minus due time, ms (send time for closed loops).
    from_due_ms: f64,
    /// Reply time minus actual send time, ms.
    from_send_ms: f64,
}

/// A phase's records plus generator health.
#[derive(Debug, Default)]
struct Phase {
    done: Vec<Done>,
    /// Send time minus due time per request, ms.
    lag_ms: Vec<f64>,
    /// `(seconds, outstanding requests)` samples.
    backlog: Vec<(f64, usize)>,
    depth_max: usize,
    seconds: f64,
    /// Completion times of closed-loop requests, seconds from the start.
    completions: Vec<f64>,
}

impl Phase {
    fn tally(&self, name: &str) -> Tally {
        let mut t = Tally::new(name);
        t.attempted = self.done.len() as u64;
        for d in &self.done {
            match d.fate {
                Fate::Failed => t.failed += 1,
                Fate::Refused { .. } => t.refused += 1,
                Fate::Ok => {}
            }
        }
        t
    }

    fn ok_latencies(&self, interactive_only: bool) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.fate == Fate::Ok && (d.interactive || !interactive_only))
            .map(|d| d.from_due_ms)
            .collect()
    }

    /// Completions per second in each whole [`RATE_WINDOW`] of the phase.
    fn window_rates(&self) -> Vec<f64> {
        let w = RATE_WINDOW.as_secs_f64();
        let n = (self.seconds / w).floor() as usize;
        let mut counts = vec![0usize; n];
        for &t in &self.completions {
            if let Some(c) = counts.get_mut((t / w) as usize) {
                *c += 1;
            }
        }
        counts.into_iter().map(|c| c as f64 / w).collect()
    }

    /// Mean outstanding requests in the last third of the schedule minus
    /// the first third: positive and large means the queue kept growing.
    fn backlog_growth(&self) -> f64 {
        let end = self.backlog.iter().map(|b| b.0).fold(0.0, f64::max);
        let mean = |lo: f64, hi: f64| {
            let v: Vec<f64> = self
                .backlog
                .iter()
                .filter(|b| b.0 >= lo && b.0 < hi)
                .map(|b| b.1 as f64)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        mean(2.0 * end / 3.0, f64::INFINITY) - mean(0.0, end / 3.0)
    }
}

/// The seeded inputs and their offline reference logits.
struct Inputs {
    images: Vec<Tensor>,
    refs: Vec<Vec<u32>>,
}

fn classify(resp: io::Result<InferResponse>, reference: &[u32]) -> Fate {
    match resp {
        Ok(InferResponse::Ok { logits, .. }) if bits(&logits) == reference => Fate::Ok,
        Ok(InferResponse::Overloaded) => Fate::Refused { deadline: false },
        Ok(InferResponse::DeadlineExceeded) => Fate::Refused { deadline: true },
        _ => Fate::Failed,
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Drives one open-loop schedule over one pipelined connection of its own.
///
/// A writer (this thread) sends each request when it falls due and a
/// reader thread timestamps replies as they arrive, so neither waits on the
/// other. Requests carry ids `1..=n` in schedule order. With a recorder,
/// each request also becomes a `client.request` span (send → reply).
fn open_loop(
    addr: SocketAddr,
    schedule: &[Arrival],
    inputs: &Inputs,
    opts: &dyn Fn(&Arrival) -> InferOptions,
    server: Option<&Server>,
    trace: Option<&Recorder>,
) -> Phase {
    let mut ph = Phase::default();
    let n = schedule.len();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let received = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut writer = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return unanswered(schedule),
    };
    let _ = writer.set_nodelay(true);
    let Ok(mut reader) = writer.try_clone() else {
        return unanswered(schedule);
    };
    let _ = reader.set_read_timeout(Some(Duration::from_millis(20)));
    let start = Instant::now();
    let due = |a: &Arrival| start + Duration::from_secs_f64(a.at);
    let replies = std::thread::scope(|s| {
        let got = s.spawn(|| {
            let mut dec = FrameDecoder::new();
            let mut got: Vec<(u32, Instant, InferResponse)> = Vec::new();
            loop {
                let at = Instant::now();
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => match decode_response(&frame) {
                            Ok((id, resp)) => {
                                got.push((id, at, resp));
                                received.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(_) => return got,
                        },
                        Ok(None) => break,
                        Err(_) => return got,
                    }
                }
                if stop.load(Ordering::SeqCst) {
                    return got;
                }
                match dec.read_from(&mut reader) {
                    Ok(0) => return got,
                    Ok(_) => {}
                    Err(e) if is_timeout(&e) => {}
                    Err(_) => return got,
                }
            }
        });
        let mut last_sample = start;
        let mut sample = |ph: &mut Phase, sent: usize| {
            let now = Instant::now();
            if now.duration_since(last_sample) >= Duration::from_millis(20) {
                last_sample = now;
                let outstanding = sent.saturating_sub(received.load(Ordering::SeqCst));
                ph.backlog.push(((now - start).as_secs_f64(), outstanding));
                if let Some(s) = server {
                    ph.depth_max = ph.depth_max.max(s.queue_depth());
                }
            }
        };
        let mut frame = Vec::new();
        let mut sent = 0;
        for (i, a) in schedule.iter().enumerate() {
            let at = due(a);
            loop {
                sample(&mut ph, sent);
                let now = Instant::now();
                if now >= at {
                    break;
                }
                std::thread::sleep((at - now).min(Duration::from_millis(20)));
            }
            frame.clear();
            let id = i as u32 + 1;
            let payload = encode_infer_request_with(id, "", &inputs.images[a.image], &opts(a));
            let _ = write_frame(&mut frame, &payload);
            let t = Instant::now();
            ph.lag_ms.push((t - at).as_secs_f64() * 1e3);
            if writer.write_all(&frame).is_err() {
                break;
            }
            sent_at[i] = Some(t);
            sent += 1;
        }
        let give_up = Instant::now() + DRAIN;
        while received.load(Ordering::SeqCst) < sent && Instant::now() < give_up {
            sample(&mut ph, sent);
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        got.join().unwrap_or_default()
    });
    ph.seconds = schedule.last().map_or(0.0, |a| a.at);
    let mut records: Vec<Option<Done>> = vec![None; n];
    // Maps an `Instant` onto the recorder's clock for `client.request` spans.
    let base = trace.map(|rec| rec.now_ns() as i128 - start.elapsed().as_nanos() as i128);
    for (id, at, resp) in replies {
        let i = id as usize;
        let (Some(a), Some(Some(sent))) = (
            i.checked_sub(1).and_then(|i| schedule.get(i)),
            sent_at.get(i.wrapping_sub(1)),
        ) else {
            continue;
        };
        let slot = &mut records[i - 1];
        let fate = if slot.is_some() {
            Fate::Failed // a second reply to one request
        } else {
            classify(Ok(resp), &inputs.refs[a.image])
        };
        if let (Some(rec), Some(base)) = (trace, base) {
            let ns = |t: Instant| (base + t.duration_since(start).as_nanos() as i128).max(0) as u64;
            rec.record(SpanRec {
                id: rec.reserve(),
                parent: 0,
                name: "client.request",
                item: id as u64,
                start_ns: ns(*sent),
                end_ns: ns(at),
            });
        }
        *slot = Some(Done {
            fate,
            interactive: a.interactive,
            from_due_ms: (at - due(a)).as_secs_f64() * 1e3,
            from_send_ms: (at - *sent).as_secs_f64() * 1e3,
        });
    }
    ph.done = finish_records(records, schedule);
    ph
}

/// Requests without a reply become failures.
fn finish_records(records: Vec<Option<Done>>, schedule: &[Arrival]) -> Vec<Done> {
    records
        .into_iter()
        .zip(schedule)
        .map(|(r, a)| {
            r.unwrap_or(Done {
                fate: Fate::Failed,
                interactive: a.interactive,
                from_due_ms: f64::INFINITY,
                from_send_ms: f64::INFINITY,
            })
        })
        .collect()
}

fn unanswered(schedule: &[Arrival]) -> Phase {
    Phase {
        done: finish_records(vec![None; schedule.len()], schedule),
        ..Phase::default()
    }
}

/// Drives a closed loop from one thread: keep `window` requests in flight
/// on every connection for `seconds`, then drain, taking replies from the
/// connections in turn. Latency runs from send time.
fn closed_loop(
    clients: &mut [Client],
    inputs: &Inputs,
    seed: u64,
    window: usize,
    seconds: f64,
) -> Phase {
    let mut ph = Phase::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inflight: Vec<HashMap<u32, (usize, Instant)>> = vec![HashMap::new(); clients.len()];
    let start = Instant::now();
    let mut send = |client: &mut Client, inflight: &mut HashMap<u32, (usize, Instant)>| -> bool {
        let img = rng.gen_range(0..inputs.images.len());
        match client.send_infer(&inputs.images[img]) {
            Ok(id) => {
                inflight.insert(id, (img, Instant::now()));
                true
            }
            Err(_) => false,
        }
    };
    let mut ok = true;
    for (client, flight) in clients.iter_mut().zip(&mut inflight) {
        let _ = client.set_timeout(Some(DRAIN));
        ok &= (0..window).all(|_| send(client, flight));
    }
    while ok && inflight.iter().any(|f| !f.is_empty()) {
        for (client, flight) in clients.iter_mut().zip(&mut inflight) {
            if flight.is_empty() {
                continue;
            }
            let Ok((id, resp)) = client.recv_response() else {
                ok = false;
                break;
            };
            let at = Instant::now();
            if let Some((img, sent)) = flight.remove(&id) {
                let ms = (at - sent).as_secs_f64() * 1e3;
                ph.done.push(Done {
                    fate: classify(Ok(resp), &inputs.refs[img]),
                    interactive: true,
                    from_due_ms: ms,
                    from_send_ms: ms,
                });
                ph.completions.push((at - start).as_secs_f64());
            }
            if secs(start) < seconds {
                ok &= send(client, flight);
            }
        }
    }
    ph.seconds = secs(start);
    for _ in inflight.iter().flat_map(HashMap::values) {
        ph.done.push(Done {
            fate: Fate::Failed,
            interactive: true,
            from_due_ms: f64::INFINITY,
            from_send_ms: f64::INFINITY,
        });
    }
    ph
}

/// Connects and infers image 0 once; its reply ends set-up (anything but
/// a bit-identical OK counts as a failure).
fn first_reply(server: &Server, inputs: &Inputs, tally: &mut Tally) -> Client {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    tally.attempted += 1;
    let fate = classify(client.infer(&inputs.images[0]), &inputs.refs[0]);
    if fate != Fate::Ok {
        tally.failed += 1;
    }
    client
}

fn lag_metrics(out: &mut Outcome, phases: &[&Phase]) {
    let lag: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    out.push(
        "gen.lag_p50_ms",
        stats::median(&lag).unwrap_or(0.0),
        "ms",
        lag.len(),
        "send time minus due time, median",
    );
    out.push(
        "gen.lag_max_ms",
        lag.iter().copied().fold(0.0, f64::max),
        "ms",
        lag.len(),
        "send time minus due time, max",
    );
}

/// Checks an open-loop phase's backlog; an invalid phase is a problem,
/// never a latency.
fn check_backlog(out: &mut Outcome, phase: &Phase, name: &str) -> f64 {
    let growth = phase.backlog_growth();
    println!("{name}: backlog growth {growth:.2} requests (limit {BACKLOG_LIMIT})");
    if growth > BACKLOG_LIMIT {
        out.problem(format!(
            "{name} phase invalid: backlog grew by {growth:.2} requests"
        ));
    }
    growth
}

fn mean_ns_ms(d: &Snapshot, name: &str, site_prefix: &str) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for h in d.hists.iter().filter(|h| h.name == name) {
        if h.site.as_deref().unwrap_or("").starts_with(site_prefix) {
            sum += h.sum;
            count += h.count;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 * 1e-6
    }
}

/// The serve-layer rows of a traced run. `quiet` is a refusal-free open
/// loop phase and the obs delta over just that phase: the client overhead
/// compares client and server latency of the same requests.
fn serve_layers(
    out: &mut Outcome,
    d: &Snapshot,
    phases: &[&Phase],
    quiet: (&Phase, &Snapshot),
    provider: &str,
    server: &Server,
) {
    let all: Vec<&Done> = phases.iter().flat_map(|p| p.done.iter()).collect();
    let n = all.len().max(1) as f64;
    let count = |f: &dyn Fn(&Done) -> bool| all.iter().filter(|d| f(d)).count() as f64;
    out.push(
        "serve.queue_wait_interactive_ms",
        mean_ns_ms(d, "serve.queue_wait", "interactive:"),
        "ms",
        all.len(),
        "obs serve.queue_wait, interactive flows, mean",
    );
    out.push(
        "serve.queue_wait_batch_ms",
        mean_ns_ms(d, "serve.queue_wait", "batch:"),
        "ms",
        all.len(),
        "obs serve.queue_wait, batch flows, mean",
    );
    let (bs, bc) = d
        .hists
        .iter()
        .filter(|h| h.name == "serve.batch_size")
        .fold((0, 0), |a, h| (a.0 + h.sum, a.1 + h.count));
    out.push(
        "serve.batch_mean",
        if bc == 0 { 0.0 } else { bs as f64 / bc as f64 },
        "count",
        bc as usize,
        "obs serve.batch_size, mean",
    );
    let server_e2e = mean_ns_ms(d, "serve.e2e", provider);
    out.push(
        "serve.server_e2e_ms",
        server_e2e,
        "ms",
        all.len(),
        "obs serve.e2e (admission to reply), mean",
    );
    let sent: Vec<f64> = quiet
        .0
        .done
        .iter()
        .filter(|d| d.fate == Fate::Ok)
        .map(|d| d.from_send_ms)
        .collect();
    let client_mean = if sent.is_empty() {
        0.0
    } else {
        sent.iter().sum::<f64>() / sent.len() as f64
    };
    out.push(
        "serve.client_overhead_ms",
        client_mean - mean_ns_ms(quiet.1, "serve.e2e", provider),
        "ms",
        sent.len(),
        "open loop without refusals: client-observed mean from send minus server e2e mean",
    );
    out.push(
        "serve.shed_ratio",
        count(&|d| d.fate == Fate::Refused { deadline: false }) / n,
        "ratio",
        all.len(),
        "OVERLOADED ÷ attempted",
    );
    out.push(
        "serve.deadline_ratio",
        count(&|d| d.fate == Fate::Refused { deadline: true }) / n,
        "ratio",
        all.len(),
        "DEADLINE ÷ attempted",
    );
    let depth = phases.iter().map(|p| p.depth_max).max().unwrap_or(0);
    out.push(
        "serve.queue_depth_max",
        depth as f64,
        "count",
        all.len(),
        "max Server::queue_depth seen by the generator",
    );
    out.push(
        "serve.write_pauses",
        server.write_pauses() as f64,
        "count",
        all.len(),
        "Server::write_pauses",
    );
}

/// Trace-overhead probe for a served workload: the same closed-loop burst
/// (one connection, 8 in flight) with the probe and recorder off and on,
/// alternated three times. Returns untraced ÷ traced median rate (=
/// traced ÷ untraced wall time) and every burst's records, for the checks.
fn burst_overhead(
    client: &mut Client,
    inputs: &Inputs,
    probe: &ProbeProvider,
    seed: u64,
    seconds: f64,
) -> (f64, Phase) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut all = Phase::default();
    for round in 0..3u64 {
        for traced in [false, true] {
            probe.set_active(traced);
            quq_obs::set_enabled(traced);
            let ph = closed_loop(
                std::slice::from_mut(client),
                inputs,
                seed ^ round,
                8,
                seconds,
            );
            quq_obs::set_enabled(false);
            let rate = ph.done.len() as f64 / ph.seconds.max(1e-9);
            if traced {
                on.push(rate)
            } else {
                off.push(rate)
            }
            all.done.extend(ph.done);
            all.completions.extend(ph.completions);
        }
    }
    probe.set_active(false);
    let ratio = stats::median(&off).unwrap_or(0.0) / stats::median(&on).unwrap_or(1.0);
    (ratio, all)
}

fn artifact_path(seed: u64) -> PathBuf {
    let dir = PathBuf::from(OUT_DIR);
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("serve-int-{}-seed{seed}.quqm", std::process::id()))
}

fn int_inputs(model: &VitModel, tables: &quq_core::pipeline::PtqTables, seed: u64) -> Inputs {
    let images = image_set(model, IMAGES, seed).images;
    let cache = Arc::new(WeightQubCache::new());
    let refs = images
        .iter()
        .map(|img| {
            let mut be = IntegerBackend::with_cache(tables, Arc::clone(&cache));
            bits(model.forward(img, &mut be).expect("forward").data())
        })
        .collect();
    Inputs { images, refs }
}

fn light_opts(_: &Arrival) -> InferOptions {
    InferOptions {
        class: Class::Interactive,
        deadline: None,
        tenant: "a".to_string(),
    }
}

fn overload_opts(a: &Arrival) -> InferOptions {
    InferOptions {
        class: if a.interactive {
            Class::Interactive
        } else {
            Class::Batch
        },
        deadline: Some(DEADLINE),
        tenant: if a.interactive { "a" } else { "b" }.to_string(),
    }
}

/// Light open loop, saturating closed loop, then overload open loop.
fn int_phases(
    inputs: &Inputs,
    server: &Server,
    seed: u64,
    seconds: f64,
    trace: Option<&Recorder>,
) -> ([Phase; 3], Snapshot) {
    let light_s = LIGHT_SHARE * seconds;
    let closed_s = CLOSED_SHARE * seconds;
    let light = arrivals::poisson(seed ^ 0x11, LIGHT_RATE, light_s, 1.0, IMAGES);
    let over = arrivals::poisson(
        seed ^ 0x22,
        OVERLOAD_RATE,
        seconds - light_s - closed_s,
        OVERLOAD_INTERACTIVE,
        IMAGES,
    );
    let addr = server.local_addr();
    let before = quq_obs::snapshot();
    let l = open_loop(addr, &light, inputs, &light_opts, Some(server), trace);
    let light_obs = quq_obs::snapshot().delta_since(&before);
    let mut clients: Vec<Client> = (0..CLOSED_CONNS)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    let c = closed_loop(&mut clients, inputs, seed ^ 0x44, INT_WINDOW, closed_s);
    drop(clients);
    let o = open_loop(addr, &over, inputs, &overload_opts, Some(server), trace);
    ([l, c, o], light_obs)
}

/// Runs `serve-int`; see the module docs.
pub fn run_int(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let model = vit_s();
    let tables = calibrate_w6a6(&model);
    let path = artifact_path(seed);
    let rec = Arc::new(Recorder::new());
    let t_save = rec.now_ns();
    let saved = ArtifactWriter::save_with(&model, &tables, &path, &WriteOptions::default())
        .expect("save artifact");
    rec.span("store.save", 0, 0, t_save);
    let inputs = int_inputs(&model, &tables, seed);
    let mut setup_t = Tally::new("setup");
    println!(
        "serve-int: artifact {} bytes, {IMAGES} images",
        saved.total_bytes
    );

    if !trace {
        let mut server = None;
        for _ in 0..SETUP_REPS {
            if let Some((s, c)) = server.take() {
                drop(c);
                Server::shutdown(s);
            }
            let t0 = Instant::now();
            let state = artifact_state(&path, "int").expect("artifact state");
            let s =
                Server::start_with_state(Arc::new(state), ServeConfig::default(), "127.0.0.1:0")
                    .expect("start");
            let c = first_reply(&s, &inputs, &mut setup_t);
            out.setups.push(secs(t0));
            server = Some((s, c));
        }
        let (s, c) = server.expect("server");
        let ([light, closed, over], _) = int_phases(&inputs, &s, seed, seconds, None);
        drop(c);
        s.shutdown();
        let _ = std::fs::remove_file(&path);

        let growth = check_backlog(&mut out, &light, "light");
        let lat = light.ok_latencies(true);
        let over_lat = over.ok_latencies(true);
        let good = over
            .done
            .iter()
            .filter(|d| d.fate == Fate::Ok && d.from_due_ms <= DEADLINE.as_secs_f64() * 1e3)
            .count();
        let goodput = good as f64 / over.seconds.max(1e-9);
        let p50 = stats::median(&lat).unwrap_or(0.0);
        let p90 = stats::tail(&lat, 90.0).unwrap_or(0.0);
        if stats::tail(&lat, 90.0).is_none() {
            out.problem(format!(
                "light phase has {} OK replies, too few for a p90",
                lat.len()
            ));
        }
        let served = closed.done.iter().filter(|d| d.fate == Fate::Ok).count() as f64
            / closed.seconds.max(1e-9);
        out.push(
            "latency_ms",
            p50,
            "ms",
            lat.len(),
            "light phase interactive latency from due time, median (= serve_p50_ms)",
        );
        out.push(
            "served_img_per_s",
            served,
            "img/s",
            closed.done.len(),
            "closed loop, 2 connections × 8 in flight",
        );
        out.push(
            "serve_p50_ms",
            p50,
            "ms",
            lat.len(),
            "light phase interactive latency from due time, median",
        );
        let p95 = stats::tail(&lat, 95.0);
        let note = if p95.is_some() {
            "light phase p95"
        } else {
            "light phase p90 (too few samples for p95)"
        };
        out.push("serve_p95_ms", p95.unwrap_or(p90), "ms", lat.len(), note);
        let (op, ov) = stats::highest_tail(&over_lat).unwrap_or((0.0, 0.0));
        let over_p95 = stats::tail(&over_lat, 95.0).unwrap_or(ov);
        let note = if stats::tail(&over_lat, 95.0).is_some() {
            "overload phase interactive latency from due time, p95".to_string()
        } else {
            format!("overload interactive latency, p{op} (too few samples for p95)")
        };
        out.push(
            "serve_overload_p95_ms",
            over_p95,
            "ms",
            over_lat.len(),
            &note,
        );
        out.push(
            "serve_goodput_rps",
            goodput,
            "req/s",
            over.done.len(),
            "overload: OK replies within 500 ms of due per second",
        );
        out.push(
            "artifact_bytes",
            saved.total_bytes as f64,
            "bytes",
            1,
            "size of the auto-codec artifact served",
        );
        let ok_all = over.done.iter().filter(|d| d.fate == Fate::Ok).count();
        out.push(
            "overload_ok_per_s",
            ok_all as f64 / over.seconds.max(1e-9),
            "req/s",
            over.done.len(),
            "overload: OK replies per second, any latency",
        );
        let good_i = over
            .done
            .iter()
            .filter(|d| {
                d.interactive && d.fate == Fate::Ok && d.from_due_ms <= DEADLINE.as_secs_f64() * 1e3
            })
            .count();
        out.push(
            "overload_interactive_goodput_rps",
            good_i as f64 / over.seconds.max(1e-9),
            "req/s",
            over.done.len(),
            "overload: interactive OK within 500 ms per second",
        );
        let shed = over
            .done
            .iter()
            .filter(|d| d.fate == Fate::Refused { deadline: false })
            .count();
        let expired = over
            .done
            .iter()
            .filter(|d| d.fate == Fate::Refused { deadline: true })
            .count();
        out.push(
            "overload_shed",
            shed as f64,
            "count",
            over.done.len(),
            "OVERLOADED replies",
        );
        out.push(
            "overload_deadline",
            expired as f64,
            "count",
            over.done.len(),
            "DEADLINE replies",
        );
        out.push(
            "light_backlog_growth",
            growth,
            "count",
            light.backlog.len(),
            "mean outstanding, last third − first third",
        );
        lag_metrics(&mut out, &[&light, &over]);
        out.tallies.extend([
            setup_t,
            light.tally("light"),
            closed.tally("closed loop"),
            over.tally("overload"),
        ]);
        return out;
    }

    // Traced: the same set-up, decomposed so each store call gets a span.
    quq_obs::set_enabled(true);
    let store_before = quq_obs::snapshot();
    let t0 = Instant::now();
    let t = rec.now_ns();
    let artifact = Artifact::open(&path).expect("open");
    let open_id = rec.span("store.open", 0, 0, t);
    let t = rec.now_ns();
    let (served, tables2) = artifact.load_all().expect("load_all");
    rec.span("store.load_all", open_id, 0, t);
    let t = rec.now_ns();
    let cache = Arc::new(WeightQubCache::from_artifact(&artifact).expect("cache fill"));
    rec.span("store.cache_fill", open_id, 0, t);
    let store = quq_obs::snapshot().delta_since(&store_before);
    quq_obs::set_enabled(false);
    let inner: Arc<dyn BackendProvider> =
        Arc::new(IntegerProvider::with_cache(Arc::new(tables2), cache));
    let probe = Arc::new(ProbeProvider::new(inner, Arc::clone(&rec)));
    probe.set_active(false);
    let state = ModelState::new(
        Arc::new(served),
        Arc::clone(&probe) as Arc<dyn BackendProvider>,
    );
    let server = Server::start_with_state(Arc::new(state), ServeConfig::default(), "127.0.0.1:0")
        .expect("start");
    let mut client = first_reply(&server, &inputs, &mut setup_t);
    out.setups.push(secs(t0));

    let span_s = |name: &str| {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::seconds)
            .sum::<f64>()
    };
    out.push(
        "store.save_s",
        span_s("store.save"),
        "s",
        1,
        "ArtifactWriter::save_with (auto codec)",
    );
    out.push(
        "store.open_s",
        span_s("store.open"),
        "s",
        1,
        "Artifact::open",
    );
    out.push(
        "store.load_all_s",
        span_s("store.load_all"),
        "s",
        1,
        "Artifact::load_all",
    );
    out.push(
        "store.cache_fill_s",
        span_s("store.cache_fill"),
        "s",
        1,
        "WeightQubCache::from_artifact",
    );
    out.push(
        "store.bytes_read",
        store.counter_total("store.bytes_read") as f64,
        "bytes",
        1,
        "obs store.bytes_read during open + load_all + cache fill",
    );
    out.push(
        "store.chunk_loads",
        store.counter_total("store.chunk_loads") as f64,
        "count",
        1,
        "obs store.chunk_loads during open + load_all + cache fill",
    );

    probe.set_active(true);
    let before = quq_obs::snapshot();
    quq_obs::set_enabled(true);
    let ([light, closed, over], light_obs) =
        int_phases(&inputs, &server, seed, 0.7 * seconds, Some(&rec));
    quq_obs::set_enabled(false);
    let d = quq_obs::snapshot().delta_since(&before);
    traced_model_layers(&mut out, &rec, &probe, &d, served_patches(&model));
    serve_layers(
        &mut out,
        &d,
        &[&light, &closed, &over],
        (&light, &light_obs),
        "quq-int",
        &server,
    );
    let (overhead, bursts) =
        burst_overhead(&mut client, &inputs, &probe, seed, BURST_SHARE * seconds);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
    out.push(
        "obs.trace_overhead",
        overhead,
        "ratio",
        bursts.completions.len(),
        "untraced ÷ traced closed-loop rate (= traced ÷ untraced wall time)",
    );
    out.tallies.push(bursts.tally("overhead bursts"));
    let growth = check_backlog(&mut out, &light, "light");
    out.push(
        "gen.backlog_growth",
        growth,
        "count",
        light.backlog.len(),
        "light phase: mean outstanding, last third − first third",
    );
    lag_metrics(&mut out, &[&light, &over]);
    out.tallies.extend([
        setup_t,
        light.tally("light (traced)"),
        closed.tally("closed loop (traced)"),
        over.tally("overload (traced)"),
    ]);
    crate::report::write_trace(&rec, "serve-int", seed);
    out
}

fn served_patches(model: &VitModel) -> f64 {
    let g = model.config().grid();
    (g * g) as f64
}

fn traced_model_layers(
    out: &mut Outcome,
    rec: &Recorder,
    probe: &ProbeProvider,
    d: &Snapshot,
    patches: f64,
) {
    let forwards: Vec<(f64, f64)> = probe
        .forwards
        .lock()
        .expect("forwards lock")
        .iter()
        .map(|&(rows, s)| (rows as f64 / patches, s))
        .collect();
    let ops = rec.op_totals();
    let gap = layers::model_layers(
        out,
        &Traced {
            ops: &ops,
            obs: d,
            forwards: &forwards,
        },
    );
    if gap > layers::SELFTIME_TOLERANCE {
        println!(
            "note: served self-time gap {:.2}% (batches overlap reactor work)",
            gap * 100.0
        );
    }
}

fn frontend_inputs(model: &VitModel, seed: u64) -> Inputs {
    let images = image_set(model, IMAGES, seed).images;
    let refs = images
        .iter()
        .map(|img| {
            bits(
                model
                    .forward(img, &mut quq_vit::Fp32Backend::new())
                    .expect("forward")
                    .data(),
            )
        })
        .collect();
    Inputs { images, refs }
}

/// Runs the closed loop on [`CLOSED_CONNS`] connections from one thread.
fn closed_phase(server: &Server, inputs: &Inputs, seed: u64, seconds: f64) -> Phase {
    let mut clients: Vec<Client> = (0..CLOSED_CONNS)
        .map(|_| Client::connect(server.local_addr()).expect("connect"))
        .collect();
    closed_loop(&mut clients, inputs, seed ^ 0x44, CLOSED_WINDOW, seconds)
}

/// Runs the fixed-rate open loop on one connection (writer + reader).
fn open_phase(
    server: &Server,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    trace: Option<&Recorder>,
) -> Phase {
    let schedule = arrivals::fixed_rate(seed ^ 0x33, FRONTEND_RATE, seconds, IMAGES);
    open_loop(
        server.local_addr(),
        &schedule,
        inputs,
        &|_| InferOptions::default(),
        Some(server),
        trace,
    )
}

/// Runs `serve-frontend`; see the module docs.
pub fn run_frontend(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let model = Arc::new(test_model());
    let inputs = frontend_inputs(&model, seed);
    let mut setup_t = Tally::new("setup");
    let rec = Arc::new(Recorder::new());

    if !trace {
        let mut server = None;
        for _ in 0..FRONTEND_SETUP_REPS {
            if let Some((s, c)) = server.take() {
                drop(c);
                Server::shutdown(s);
            }
            let t0 = Instant::now();
            let s = Server::start(
                Arc::clone(&model),
                Arc::new(Fp32Provider),
                ServeConfig::default(),
                "127.0.0.1:0",
            )
            .expect("start");
            let c = first_reply(&s, &inputs, &mut setup_t);
            out.setups.push(secs(t0));
            server = Some((s, c));
        }
        let (s, c) = server.expect("server");
        drop(c);
        let closed = closed_phase(&s, &inputs, seed, 0.5 * seconds);
        let open = open_phase(&s, &inputs, seed, 0.5 * seconds, None);
        s.shutdown();
        let growth = check_backlog(&mut out, &open, "open loop");
        let windows = closed.window_rates();

        let rate = stats::median(&windows).unwrap_or(0.0);
        let lat = open.ok_latencies(false);
        let p50 = stats::median(&lat).unwrap_or(0.0);
        let p90 = stats::tail(&lat, 90.0).unwrap_or(0.0);
        let p99 = stats::tail(&lat, 99.0).unwrap_or(0.0);
        if stats::tail(&lat, 99.0).is_none() {
            out.problem(format!(
                "open loop has {} OK replies, too few for a p99",
                lat.len()
            ));
        }
        out.push("latency_ms", p50, "ms", lat.len(), &format!("open loop at {FRONTEND_RATE} req/s, latency from due time, median (= frontend_p50_ms)"));
        out.push(
            "frontend_req_per_s",
            rate,
            "req/s",
            windows.len(),
            "closed loop, 2 connections × 32 pipelined, median of 0.5 s windows",
        );
        out.push(
            "frontend_p50_ms",
            p50,
            "ms",
            lat.len(),
            &format!("open loop at {FRONTEND_RATE} req/s, latency from due time, median"),
        );
        out.push(
            "frontend_p90_ms",
            p90,
            "ms",
            lat.len(),
            "open loop latency from due time, p90",
        );
        out.push(
            "frontend_p99_ms",
            p99,
            "ms",
            lat.len(),
            "open loop latency from due time, p99",
        );
        out.push(
            "open_backlog_growth",
            growth,
            "count",
            open.backlog.len(),
            "mean outstanding, last third − first third",
        );
        lag_metrics(&mut out, &[&open]);
        out.tallies.extend([
            setup_t,
            closed.tally("closed loop"),
            open.tally("open loop"),
        ]);
        return out;
    }

    let probe = Arc::new(ProbeProvider::new(Arc::new(Fp32Provider), Arc::clone(&rec)));
    probe.set_active(false);
    let t0 = Instant::now();
    let server = Server::start(
        Arc::clone(&model),
        Arc::clone(&probe) as Arc<dyn BackendProvider>,
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .expect("start");
    let mut client = first_reply(&server, &inputs, &mut setup_t);
    out.setups.push(secs(t0));
    probe.set_active(true);
    let before = quq_obs::snapshot();
    quq_obs::set_enabled(true);
    let closed = closed_phase(&server, &inputs, seed, 0.2 * seconds);
    let open_before = quq_obs::snapshot();
    let open = open_phase(&server, &inputs, seed, 0.2 * seconds, Some(&rec));
    let open_obs = quq_obs::snapshot().delta_since(&open_before);
    quq_obs::set_enabled(false);
    let d = quq_obs::snapshot().delta_since(&before);
    traced_model_layers(&mut out, &rec, &probe, &d, served_patches(&model));
    serve_layers(
        &mut out,
        &d,
        &[&closed, &open],
        (&open, &open_obs),
        "fp32",
        &server,
    );
    let (overhead, bursts) =
        burst_overhead(&mut client, &inputs, &probe, seed, BURST_SHARE * seconds);
    drop(client);
    server.shutdown();
    out.push(
        "obs.trace_overhead",
        overhead,
        "ratio",
        bursts.completions.len(),
        "untraced ÷ traced closed-loop rate (= traced ÷ untraced wall time)",
    );
    out.tallies.push(bursts.tally("overhead bursts"));
    let growth = check_backlog(&mut out, &open, "open loop");
    out.push(
        "gen.backlog_growth",
        growth,
        "count",
        open.backlog.len(),
        "open loop: mean outstanding, last third − first third",
    );
    lag_metrics(&mut out, &[&open]);
    out.tallies.extend([
        setup_t,
        closed.tally("closed loop (traced)"),
        open.tally("open loop (traced)"),
    ]);
    crate::report::write_trace(&rec, "serve-frontend", seed);
    out
}
