//! Span tracing from outside the program: the benchmark stamps the
//! calls it makes into each layer (and, through [`Traced`], the calls
//! `erpc` makes into its transport) and derives every layer's self time.
//!
//! Everything runs on one thread, so the tracer is a thread-local span
//! stack. A span's self time is its duration minus the part its child
//! spans cover; the self times of all spans under the root therefore add
//! up to the root's duration, which is the measured window.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

use erpc_transport::{Addr, RxToken, Transport, TransportStats, TxPacket};

/// Where a span was taken. The discriminant indexes [`Report::acc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// Root: the whole measured window (self time = generator, clock
    /// reads, slice bookkeeping, tracing residue).
    Harness,
    /// `Rpc::run_event_loop_once`.
    EventLoop,
    TxBurst,
    TxFlush,
    RxBurst,
    RxRelease,
    /// `Rpc::enqueue_request` (and `alloc_msg_buffer` when a pool is cold).
    Issue,
    /// `ReqContext::respond`.
    Respond,
    /// The benchmark's request handler.
    Handler,
    /// The benchmark's continuation.
    Cont,
}

/// Number of [`SpanName`]s.
const SPAN_NAMES: usize = 10;

impl SpanName {
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Harness => "harness",
            SpanName::EventLoop => "core.event_loop",
            SpanName::TxBurst => "transport.tx_burst",
            SpanName::TxFlush => "transport.tx_flush",
            SpanName::RxBurst => "transport.rx_burst",
            SpanName::RxRelease => "transport.rx_release",
            SpanName::Issue => "core.issue",
            SpanName::Respond => "core.respond",
            SpanName::Handler => "app.handler",
            SpanName::Cont => "app.cont",
        }
    }
}

/// No parent: a root span, or a parent that fell outside the buffer.
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span. `parent` indexes the same buffer; `req` is the
/// request sequence number shared by the spans of one request (0 for
/// spans that serve a whole batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub parent: u32,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals: spans closed, their durations, their self times.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Acc {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Counts taken at the `Transport` seam by [`Traced`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounts {
    pub tx_bursts: u64,
    pub tx_pkts: u64,
    pub rx_polls: u64,
    pub rx_empty: u64,
    pub rx_pkts: u64,
}

struct Frame {
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
    slot: u32,
}

/// What a traced window produced.
pub struct Report {
    pub acc: [Acc; SPAN_NAMES],
    pub io: IoCounts,
    /// The first spans of the window, up to the buffer's capacity.
    pub spans: Vec<Span>,
    /// Spans that did not fit the buffer (still counted in `acc`).
    pub spans_dropped: u64,
}

impl Report {
    pub fn self_ns(&self, name: SpanName) -> u64 {
        self.acc[name as usize].self_ns
    }
}

/// The span stack and its accumulators. Times are passed in so the
/// arithmetic is testable without a clock.
pub struct Tracer {
    stack: Vec<Frame>,
    acc: [Acc; SPAN_NAMES],
    io: IoCounts,
    spans: Vec<Span>,
    spans_dropped: u64,
}

impl Tracer {
    /// A tracer whose span buffer holds `span_capacity` spans; nothing is
    /// allocated after this.
    pub fn new(span_capacity: usize) -> Self {
        Self {
            stack: Vec::with_capacity(16),
            acc: [Acc::default(); SPAN_NAMES],
            io: IoCounts::default(),
            spans: Vec::with_capacity(span_capacity),
            spans_dropped: 0,
        }
    }

    pub fn enter(&mut self, name: SpanName, req: u64, now_ns: u64) {
        let slot = if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name,
                parent: self.stack.last().map_or(NO_SPAN, |f| f.slot),
                req,
                start_ns: now_ns,
                end_ns: now_ns,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.spans_dropped += 1;
            NO_SPAN
        };
        self.stack.push(Frame {
            name,
            start_ns: now_ns,
            child_ns: 0,
            slot,
        });
    }

    pub fn exit(&mut self, now_ns: u64) {
        let frame = self.stack.pop().expect("span exit without enter");
        let dur = now_ns.saturating_sub(frame.start_ns);
        let acc = &mut self.acc[frame.name as usize];
        acc.count += 1;
        acc.total_ns += dur;
        // Children run one after another inside their parent, so the
        // part of the interval they cover is the sum of their durations.
        acc.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(span) = self.spans.get_mut(frame.slot as usize) {
            span.end_ns = now_ns;
        }
    }

    pub fn finish(self) -> Report {
        assert!(self.stack.is_empty(), "unclosed spans at end of trace");
        Report {
            acc: self.acc,
            io: self.io,
            spans: self.spans,
            spans_dropped: self.spans_dropped,
        }
    }
}

struct Local {
    clock: Instant,
    tracer: Option<Tracer>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local { clock: Instant::now(), tracer: None });
}

fn with_tracer(f: impl FnOnce(&mut Tracer, u64)) {
    LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        if let Some(t) = l.tracer.as_mut() {
            let now = l.clock.elapsed().as_nanos() as u64;
            f(t, now);
        }
    });
}

/// Start collecting on this thread. Spans opened while no collection is
/// running are ignored.
pub fn start(span_capacity: usize) {
    LOCAL.with(|l| l.borrow_mut().tracer = Some(Tracer::new(span_capacity)));
}

/// Stop collecting and hand back what was gathered.
pub fn stop() -> Report {
    LOCAL
        .with(|l| l.borrow_mut().tracer.take())
        .expect("trace::stop without start")
        .finish()
}

/// What one empty span costs, in nanoseconds: the tracing overhead a
/// waterfall row carries per span, roughly half in the span's own row
/// and half in its parent's.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    start(0);
    let t0 = Instant::now();
    for _ in 0..N {
        drop(span::<On>(SpanName::Handler, 0));
    }
    let ns = t0.elapsed().as_nanos() as f64 / f64::from(N);
    stop();
    ns
}

/// Compile-time tracing switch: the untraced run instantiates the
/// harness with [`Off`], so end-to-end numbers carry no tracing branch,
/// clock read or wrapper at all.
pub trait Probe: 'static {
    const ON: bool;
    type Wrap<T: Transport>: Transport;
    fn wrap<T: Transport>(inner: T) -> Self::Wrap<T>;
}

pub struct Off;
pub struct On;

impl Probe for Off {
    const ON: bool = false;
    type Wrap<T: Transport> = T;
    fn wrap<T: Transport>(inner: T) -> T {
        inner
    }
}

impl Probe for On {
    const ON: bool = true;
    type Wrap<T: Transport> = Traced<T>;
    fn wrap<T: Transport>(inner: T) -> Traced<T> {
        Traced { inner }
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<P: Probe>(PhantomData<P>);

/// Open a span that lasts until the guard is dropped.
#[inline(always)]
pub fn span<P: Probe>(name: SpanName, req: u64) -> SpanGuard<P> {
    if P::ON {
        with_tracer(|t, now| t.enter(name, req, now));
    }
    SpanGuard(PhantomData)
}

impl<P: Probe> Drop for SpanGuard<P> {
    #[inline(always)]
    fn drop(&mut self) {
        if P::ON {
            with_tracer(|t, now| t.exit(now));
        }
    }
}

/// A [`Transport`] that delegates every call and stamps the four
/// datapath entry points, so time on the far side of the `Transport`
/// seam is measured apart from `erpc`'s own. `rx_bytes` and `now_ns`
/// are per-packet accessors too short to stamp; they stay in the
/// caller's self time.
pub struct Traced<T> {
    inner: T,
}

impl<T: Transport> Transport for Traced<T> {
    fn addr(&self) -> Addr {
        self.inner.addr()
    }

    fn mtu(&self) -> usize {
        self.inner.mtu()
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn tx_burst(&mut self, pkts: &[TxPacket<'_>]) {
        with_tracer(|t, now| {
            t.io.tx_bursts += 1;
            t.io.tx_pkts += pkts.len() as u64;
            t.enter(SpanName::TxBurst, 0, now);
        });
        self.inner.tx_burst(pkts);
        with_tracer(|t, now| t.exit(now));
    }

    fn tx_flush(&mut self) {
        let _s = span::<On>(SpanName::TxFlush, 0);
        self.inner.tx_flush();
    }

    fn rx_burst(&mut self, max: usize, out: &mut Vec<RxToken>) -> usize {
        with_tracer(|t, now| t.enter(SpanName::RxBurst, 0, now));
        let n = self.inner.rx_burst(max, out);
        with_tracer(|t, now| {
            t.exit(now);
            t.io.rx_polls += 1;
            t.io.rx_empty += u64::from(n == 0);
            t.io.rx_pkts += n as u64;
        });
        n
    }

    fn rx_bytes(&self, tok: &RxToken) -> &[u8] {
        self.inner.rx_bytes(tok)
    }

    fn rx_release(&mut self) {
        let _s = span::<On>(SpanName::RxRelease, 0);
        self.inner.rx_release();
    }

    fn stats(&self) -> &TransportStats {
        self.inner.stats()
    }

    fn rx_ring_size(&self) -> usize {
        self.inner.rx_ring_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erpc_transport::{MemFabric, MemFabricConfig};

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut t = Tracer::new(16);
        t.enter(SpanName::Harness, 0, 0);
        t.enter(SpanName::EventLoop, 0, 10);
        t.enter(SpanName::RxBurst, 0, 20);
        t.exit(50); // rx_burst: 30, no children
        t.enter(SpanName::Handler, 7, 60);
        t.enter(SpanName::Respond, 7, 70);
        t.exit(75); // respond: 5
        t.exit(90); // handler: 30 total, 25 self
        t.exit(100); // event loop: 90 total, minus 30 and 30
        t.exit(130); // harness: 130 total, minus 90
        let r = t.finish();
        assert_eq!(r.self_ns(SpanName::RxBurst), 30);
        assert_eq!(r.self_ns(SpanName::Respond), 5);
        assert_eq!(r.self_ns(SpanName::Handler), 25);
        assert_eq!(r.self_ns(SpanName::EventLoop), 30);
        assert_eq!(r.self_ns(SpanName::Harness), 40);
        assert_eq!(r.acc[SpanName::Handler as usize].total_ns, 30);
        // Self times of everything under the root add up to the root.
        let sum: u64 = r.acc.iter().map(|a| a.self_ns).sum();
        assert_eq!(sum, 130);
    }

    #[test]
    fn spans_record_parent_and_request() {
        let mut t = Tracer::new(2);
        t.enter(SpanName::EventLoop, 0, 5);
        t.enter(SpanName::Cont, 42, 6);
        t.enter(SpanName::Issue, 43, 7); // buffer full: counted, not kept
        t.exit(8);
        t.exit(9);
        t.exit(10);
        let r = t.finish();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans_dropped, 1);
        assert_eq!(r.spans[0].parent, NO_SPAN);
        assert_eq!(
            r.spans[1],
            Span {
                name: SpanName::Cont,
                parent: 0,
                req: 42,
                start_ns: 6,
                end_ns: 9
            }
        );
        assert_eq!(r.acc[SpanName::Issue as usize].count, 1);
    }

    #[test]
    fn traced_passes_bytes_and_tokens_through() {
        let fabric = MemFabric::new(MemFabricConfig::default());
        let (a, b) = (Addr::new(0, 0), Addr::new(1, 0));
        let mut tx = On::wrap(fabric.create_transport(a));
        let mut rx = On::wrap(fabric.create_transport(b));
        assert_eq!((tx.addr(), rx.addr()), (a, b));
        assert_eq!(tx.mtu(), MemFabricConfig::default().mtu);

        start(64);
        let hdr = [0xA5u8; 16];
        let data: Vec<u8> = (0..100u8).collect();
        tx.tx_burst(&[
            TxPacket {
                dst: b,
                hdr: &hdr,
                data: &data,
            },
            TxPacket {
                dst: b,
                hdr: &hdr,
                data: &[],
            },
        ]);
        let mut toks = Vec::new();
        assert_eq!(rx.rx_burst(8, &mut toks), 2);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].len(), 116);
        assert_eq!(&rx.rx_bytes(&toks[0])[..16], &hdr);
        assert_eq!(&rx.rx_bytes(&toks[0])[16..], &data[..]);
        assert_eq!(rx.rx_bytes(&toks[1]), &hdr);
        rx.rx_release();
        toks.clear();
        assert_eq!(rx.rx_burst(8, &mut toks), 0);
        let r = stop();

        assert_eq!(
            r.io,
            IoCounts {
                tx_bursts: 1,
                tx_pkts: 2,
                rx_polls: 2,
                rx_empty: 1,
                rx_pkts: 2
            }
        );
        assert_eq!(r.acc[SpanName::TxBurst as usize].count, 1);
        assert_eq!(r.acc[SpanName::RxBurst as usize].count, 2);
        assert_eq!(r.acc[SpanName::RxRelease as usize].count, 1);
        assert_eq!((tx.stats().tx_pkts, rx.stats().rx_pkts), (2, 2));
    }
}
