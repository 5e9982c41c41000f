//! The benchmark's own tracing: spans recorded from *outside* the crates,
//! around the calls the benchmark makes into each layer.
//!
//! * [`Recorder`] keeps spans in memory (name, start, end, parent, and the
//!   image or request id they belong to) and writes them out once, when the
//!   run ends.
//! * [`Probe`] wraps any [`Backend`]: with a capture sink it records the
//!   logits leaving the classifier head (so outputs can be checked bit for
//!   bit) and the time from patch embedding to head, and when
//!   a recorder is attached it also times every op and reads the inclusive
//!   `quq-obs` histograms of the layers below around the call, so an op's
//!   self time is its span minus the core/tensor time spent inside it.
//! * [`ProbeProvider`] is the serving counterpart: a `BackendProvider` that
//!   hands the server's worker a [`Probe`] and times each batched forward.

use quq_obs::Histogram;
use quq_serve::BackendProvider;
use quq_tensor::Tensor;
use quq_vit::backend::Result;
use quq_vit::{Backend, OpKind, OpSite};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One recorded span. `parent` and `id` are recorder-assigned (0 = none);
/// `item` is the image index (offline) or batch sequence number (serving).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span id, unique within the recorder, starting at 1.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Layer-qualified name, e.g. `vit.forward` or `accel.linear`.
    pub name: &'static str,
    /// Image or request id the span worked for.
    pub item: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns.saturating_sub(self.start_ns)) as f64 * 1e-9
    }
}

/// Spans a recorder keeps; later ones are counted as dropped (op totals
/// still accumulate), bounding memory and the trace file (~20 MB).
pub const MAX_SPANS: usize = 200_000;

/// In-memory span store shared by every probe of one traced run.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    next: AtomicU32,
    dropped: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    ops: Mutex<BTreeMap<&'static str, OpTotals>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            next: AtomicU32::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            ops: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Reserves a span id (so children can name their parent before the
    /// parent's end is known).
    pub fn reserve(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id (or counts it as
    /// dropped past [`MAX_SPANS`]).
    pub fn record(&self, span: SpanRec) {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans not kept because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records a finished span, reserving its id.
    pub fn span(&self, name: &'static str, parent: u32, item: u64, start_ns: u64) -> u32 {
        let id = self.reserve();
        self.record(SpanRec {
            id,
            parent,
            name,
            item,
            start_ns,
            end_ns: self.now_ns(),
        });
        id
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Per-op totals accumulated by the probes, keyed by span name.
    pub fn op_totals(&self) -> BTreeMap<&'static str, OpTotals> {
        self.ops
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn add_op(&self, name: &'static str, span_ns: u64, inside: Inside) {
        let mut ops = self.ops.lock().unwrap_or_else(PoisonError::into_inner);
        let t = ops.entry(name).or_default();
        t.calls += 1;
        t.span_ns += span_ns;
        t.inside.add(&inside);
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"item\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.item, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Inclusive `quq-obs` time (ns) of the layers below, measured inside one
/// op span. These histograms are recorded on the calling thread around
/// whole calls, so while only one forward runs at a time their growth
/// during an op belongs to that op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Inside {
    /// `qub.encode`: activation and weight QUB encode (quq-core).
    pub encode_ns: u64,
    /// `qub.decode_preshifted`: QUB → pre-shifted panel decode (quq-core).
    pub decode_ns: u64,
    /// `gemm.i16_nt` + `gemm.int_matmul`: integer GEMM kernels (quq-tensor).
    pub int_gemm_ns: u64,
    /// `gemm.matmul` + `gemm.matmul_nt`: f32 GEMM kernels (quq-tensor).
    pub fp32_gemm_ns: u64,
    /// `sfu.*`: integer softmax / GELU / LayerNorm units (quq-accel).
    pub sfu_ns: u64,
}

impl Inside {
    fn add(&mut self, o: &Inside) {
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.int_gemm_ns += o.int_gemm_ns;
        self.fp32_gemm_ns += o.fp32_gemm_ns;
        self.sfu_ns += o.sfu_ns;
    }

    /// Sum over every lower layer.
    pub fn total_ns(&self) -> u64 {
        self.encode_ns + self.decode_ns + self.int_gemm_ns + self.fp32_gemm_ns + self.sfu_ns
    }
}

/// Accumulated calls, inclusive span time and lower-layer time of one op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Calls made.
    pub calls: u64,
    /// Summed span time, ns.
    pub span_ns: u64,
    /// Lower-layer time inside those spans.
    pub inside: Inside,
}

impl OpTotals {
    /// Span time not covered by lower-layer spans, ns.
    pub fn self_ns(&self) -> u64 {
        self.span_ns.saturating_sub(self.inside.total_ns())
    }
}

struct ObsHists {
    encode: Arc<Histogram>,
    decode: Arc<Histogram>,
    int_gemm: [Arc<Histogram>; 2],
    fp32_gemm: [Arc<Histogram>; 2],
    sfu: [Arc<Histogram>; 3],
}

fn hists() -> &'static ObsHists {
    static H: OnceLock<ObsHists> = OnceLock::new();
    H.get_or_init(|| ObsHists {
        encode: quq_obs::histogram("qub.encode"),
        decode: quq_obs::histogram("qub.decode_preshifted"),
        int_gemm: [
            quq_obs::histogram("gemm.i16_nt"),
            quq_obs::histogram("gemm.int_matmul"),
        ],
        fp32_gemm: [
            quq_obs::histogram("gemm.matmul"),
            quq_obs::histogram("gemm.matmul_nt"),
        ],
        sfu: [
            quq_obs::histogram("sfu.softmax"),
            quq_obs::histogram("sfu.gelu"),
            quq_obs::histogram("sfu.layer_norm"),
        ],
    })
}

fn read_inside() -> Inside {
    let h = hists();
    Inside {
        encode_ns: h.encode.sum(),
        decode_ns: h.decode.sum(),
        int_gemm_ns: h.int_gemm.iter().map(|x| x.sum()).sum(),
        fp32_gemm_ns: h.fp32_gemm.iter().map(|x| x.sum()).sum(),
        sfu_ns: h.sfu.iter().map(|x| x.sum()).sum(),
    }
}

fn delta(after: Inside, before: Inside) -> Inside {
    Inside {
        encode_ns: after.encode_ns.saturating_sub(before.encode_ns),
        decode_ns: after.decode_ns.saturating_sub(before.decode_ns),
        int_gemm_ns: after.int_gemm_ns.saturating_sub(before.int_gemm_ns),
        fp32_gemm_ns: after.fp32_gemm_ns.saturating_sub(before.fp32_gemm_ns),
        sfu_ns: after.sfu_ns.saturating_sub(before.sfu_ns),
    }
}

/// FNV-1a over the bit patterns of a tensor's values: identifies which
/// image a forward is running on from its patch matrix.
pub fn fingerprint(t: &Tensor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in t.data() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One forward seen by a capturing probe: the fingerprint of the patch
/// matrix that entered it, the logits that left the head, and the seconds
/// from patch-embedding entry to head exit.
pub type Capture = (u64, Vec<f32>, f64);

/// Captures shared by every probe of one evaluation.
pub type Captured = Arc<Mutex<Vec<Capture>>>;

/// A [`Backend`] wrapper owned by the benchmark. See the module docs.
pub struct Probe<B> {
    inner: B,
    capture: Option<Captured>,
    trace: Option<Arc<Recorder>>,
    /// Patch-matrix fingerprint of the forward in progress.
    current: u64,
    /// When the forward in progress entered the patch embedding.
    started: Option<Instant>,
    /// Rows entering the patch embedding of the forward in progress.
    rows: usize,
    /// Parent span id and item for op spans.
    parent: u32,
    item: u64,
}

impl<B: Backend> Probe<B> {
    /// Wraps `inner`; `capture` collects head logits, `trace` records spans.
    pub fn new(inner: B, capture: Option<Captured>, trace: Option<Arc<Recorder>>) -> Self {
        Self {
            inner,
            capture,
            trace,
            current: 0,
            started: None,
            rows: 0,
            parent: 0,
            item: 0,
        }
    }

    /// Sets the span and item that following op spans belong to.
    pub fn set_parent(&mut self, parent: u32, item: u64) {
        self.parent = parent;
        self.item = item;
    }

    /// Rows that entered the last patch embedding (images × patches).
    pub fn last_rows(&self) -> usize {
        self.rows
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut B) -> T) -> T {
        let Some(rec) = self.trace.clone() else {
            return f(&mut self.inner);
        };
        let before = read_inside();
        let start = rec.now_ns();
        let out = f(&mut self.inner);
        let end = rec.now_ns();
        let inside = delta(read_inside(), before);
        rec.record(SpanRec {
            id: rec.reserve(),
            parent: self.parent,
            name,
            item: self.item,
            start_ns: start,
            end_ns: end,
        });
        rec.add_op(name, end - start, inside);
        out
    }
}

impl<B: Backend> Backend for Probe<B> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
    ) -> Result<Tensor> {
        if site.kind == OpKind::PatchEmbed {
            self.rows = x.shape()[0];
            if self.capture.is_some() {
                self.current = fingerprint(x);
                self.started = Some(Instant::now());
            }
        }
        let y = self.timed("accel.linear", |be| be.linear(site, x, w, b))?;
        if site.kind == OpKind::Head {
            if let Some(cap) = &self.capture {
                let seconds = self.started.map_or(0.0, |t| t.elapsed().as_secs_f64());
                let classes = y.shape()[y.rank() - 1];
                let mut cap = cap.lock().unwrap_or_else(PoisonError::into_inner);
                for row in y.data().chunks(classes) {
                    cap.push((self.current, row.to_vec(), seconds));
                }
            }
        }
        Ok(y)
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.timed("accel.matmul", |be| be.matmul(site, a, b))
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.timed("accel.matmul_nt", |be| be.matmul_nt(site, a, b))
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.timed("accel.softmax", |be| be.softmax(site, x))
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.timed("accel.gelu", |be| be.gelu(site, x))
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.timed("accel.layer_norm", |be| be.layer_norm(site, x, g, b))
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.timed("accel.add", |be| be.add(site, a, b))
    }
}

/// Serving-side probe: builds each batch's backend through `inner` and
/// times the batched forward the worker runs on it (`vit.forward_batch`,
/// item = batch sequence number), with [`Probe`] op spans as children.
pub struct ProbeProvider {
    inner: Arc<dyn BackendProvider>,
    trace: Arc<Recorder>,
    active: AtomicBool,
    batches: AtomicU64,
    /// `(images in batch, forward seconds)` per batch.
    pub forwards: Mutex<Vec<(usize, f64)>>,
}

impl ProbeProvider {
    /// Wraps the provider the server would otherwise use.
    pub fn new(inner: Arc<dyn BackendProvider>, trace: Arc<Recorder>) -> Self {
        Self {
            inner,
            trace,
            active: AtomicBool::new(true),
            batches: AtomicU64::new(0),
            forwards: Mutex::new(Vec::new()),
        }
    }

    /// Turns the probe on or off; off, batches run on the inner provider's
    /// backend untouched.
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::SeqCst);
    }
}

impl BackendProvider for ProbeProvider {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn quq_vit::Backend)) {
        if !self.active.load(Ordering::SeqCst) {
            return self.inner.with_backend(work);
        }
        let item = self.batches.fetch_add(1, Ordering::Relaxed);
        let rec = Arc::clone(&self.trace);
        self.inner.with_backend(&mut |be| {
            let id = rec.reserve();
            let mut probe = Probe::new(&mut *be, None, Some(Arc::clone(&rec)));
            probe.set_parent(id, item);
            let start = rec.now_ns();
            work(&mut probe);
            let rows = probe.last_rows();
            let end = rec.now_ns();
            rec.record(SpanRec {
                id,
                parent: 0,
                name: "vit.forward_batch",
                item,
                start_ns: start,
                end_ns: end,
            });
            self.forwards
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((rows, (end - start) as f64 * 1e-9));
        });
    }
}
