package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lepton/internal/core"
	"lepton/internal/jpeg"
	"lepton/internal/store"
)

// Outsourcer selects a target address for an outsourced conversion, or
// reports that none is available.
type Outsourcer interface {
	Target() (addr string, ok bool)
}

// ctxOutsourcer is the context-aware selection an Outsourcer may optionally
// implement (PeerPool does): the serve path passes the request context so a
// cancelled request stops probing immediately.
type ctxOutsourcer interface {
	TargetCtx(ctx context.Context) (addr string, ok bool)
}

// probeFailureCounter is optionally implemented by an Outsourcer whose
// selection involves load probes; StatsSnapshot surfaces the count.
type probeFailureCounter interface {
	ProbeFailures() int64
}

// probeRTTReporter is optionally implemented by an Outsourcer that tracks
// per-peer probe round-trip estimates (PeerPool does); StatsSnapshot
// exports them as peer<i>_srtt_us/_rttvar_us/_rtt_samples in the peer
// list's address order, making the pacing inputs visible on -debug-addr.
type probeRTTReporter interface {
	ProbeRTTs() map[string]RTTStat
}

// outsourceTarget selects a target through the configured Outsourcer,
// preferring its context-aware form.
func (b *Blockserver) outsourceTarget(ctx context.Context) (string, bool) {
	if co, ok := b.Outsource.(ctxOutsourcer); ok {
		return co.TargetCtx(ctx)
	}
	return b.Outsource.Target()
}

// DedicatedPool outsources to a dedicated Lepton cluster — the paper's
// best-performing strategy at peak (§5.5.1): a random member is picked.
type DedicatedPool struct {
	Addrs []string
	rng   *rand.Rand
	mu    sync.Mutex
}

// NewDedicatedPool builds a pool with a deterministic selector.
func NewDedicatedPool(addrs []string, seed int64) *DedicatedPool {
	return &DedicatedPool{Addrs: addrs, rng: rand.New(rand.NewSource(seed))}
}

// Target returns a random pool member.
func (p *DedicatedPool) Target() (string, bool) {
	if len(p.Addrs) == 0 {
		return "", false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.Addrs[p.rng.Intn(len(p.Addrs))], true
}

// PeerPool outsources to other blockservers ("To Self" in Figure 9) using
// the power of two random choices: probe the load of two random peers and
// pick the less loaded one (§5.5, [Mitzenmacher et al.]).
type PeerPool struct {
	Addrs        []string
	ProbeTimeout time.Duration
	rng          *rand.Rand
	mu           sync.Mutex

	probeFailures atomic.Int64

	// rtts holds one probe RTT EWMA per peer, surfaced through ProbeRTTs
	// and the owning blockserver's StatsSnapshot (peer<i>_srtt_us).
	rttMu sync.Mutex
	rtts  map[string]*RTTEstimator
}

// NewPeerPool builds a peer pool with a deterministic selector.
func NewPeerPool(addrs []string, seed int64) *PeerPool {
	return &PeerPool{Addrs: addrs, ProbeTimeout: time.Second, rng: rand.New(rand.NewSource(seed)),
		rtts: make(map[string]*RTTEstimator)}
}

// observeRTT folds one successful probe round trip into addr's estimator.
func (p *PeerPool) observeRTT(addr string, d time.Duration) {
	p.rttMu.Lock()
	e := p.rtts[addr]
	if e == nil {
		if p.rtts == nil {
			p.rtts = make(map[string]*RTTEstimator)
		}
		e = &RTTEstimator{}
		p.rtts[addr] = e
	}
	p.rttMu.Unlock()
	e.Observe(d)
}

// ProbeRTTs returns the per-peer probe RTT estimates accumulated by
// TargetCtx selections, keyed by peer address.
func (p *PeerPool) ProbeRTTs() map[string]RTTStat {
	p.rttMu.Lock()
	defer p.rttMu.Unlock()
	out := make(map[string]RTTStat, len(p.rtts))
	for addr, e := range p.rtts {
		out[addr] = e.Stat()
	}
	return out
}

// Target selects a peer without an external context; see TargetCtx.
func (p *PeerPool) Target() (string, bool) {
	return p.TargetCtx(context.Background())
}

// TargetCtx probes two random peers concurrently under one shared context
// (bounded by ProbeTimeout) and returns the less loaded. The shared context
// keeps the selection latency at a single probe round even when a peer is
// dead — the whole selection, not each probe, pays at most one timeout —
// and it sits on the critical path of every outsourced conversion, so the
// caller's request context cancels the probes too.
func (p *PeerPool) TargetCtx(ctx context.Context) (string, bool) {
	if len(p.Addrs) == 0 {
		return "", false
	}
	p.mu.Lock()
	a := p.Addrs[p.rng.Intn(len(p.Addrs))]
	b := p.Addrs[p.rng.Intn(len(p.Addrs))]
	p.mu.Unlock()
	timeout := p.ProbeTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	if a == b {
		// Same peer drawn twice: one probe decides — a dead peer must not
		// be selected just because the rng collapsed the pair.
		start := time.Now()
		if _, err := probeLoad(pctx, a); err != nil {
			if ctx.Err() == nil {
				// Not our own cancellation: a real verdict on the peer.
				p.probeFailures.Add(1)
			}
			return "", false
		}
		p.observeRTT(a, time.Since(start))
		return a, true
	}
	pair := [2]string{a, b}
	win, errs := probePair(pctx, func(ctx context.Context, k int) (uint32, error) {
		start := time.Now()
		load, err := probeLoad(ctx, pair[k])
		if err == nil {
			p.observeRTT(pair[k], time.Since(start))
		}
		return load, err
	})
	if ctx.Err() != nil {
		// The request was cancelled mid-probe; no verdict on the peers.
		return "", false
	}
	for _, err := range errs {
		if err != nil {
			p.probeFailures.Add(1)
		}
	}
	if win < 0 {
		return "", false
	}
	return pair[win], true
}

// ProbeFailures reports how many load probes have failed; a Blockserver
// exposes it as "probe_failures" in StatsSnapshot.
func (p *PeerPool) ProbeFailures() int64 { return p.probeFailures.Load() }

func probeLoad(ctx context.Context, addr string) (uint32, error) {
	resp, err := DoCtx(ctx, addr, OpLoad, nil)
	if err != nil {
		return 0, err
	}
	if len(resp) < 4 {
		return 0, fmt.Errorf("server: short load response (%d bytes)", len(resp))
	}
	return binary.LittleEndian.Uint32(resp), nil
}

// Stats counts blockserver activity.
type Stats struct {
	Compresses   atomic.Int64
	Decompresses atomic.Int64
	// GetRanges counts OpGetRange requests served (fast path and fallback
	// alike; the split lives in core.RangeStats, merged into StatsSnapshot).
	GetRanges  atomic.Int64
	Outsourced atomic.Int64
	Errors     atomic.Int64
	// Cancelled counts conversions aborted mid-flight by a per-request
	// context: peer disconnect, RequestTimeout, or a forced drain.
	Cancelled atomic.Int64
	// Writevs counts the vectored write batches issued by streamed
	// decompress responses — each is one writev syscall on TCP and Unix
	// sockets, covering up to vecMaxIOV decoder segments that previously
	// took a write call apiece.
	Writevs atomic.Int64
}

// StatsSnapshot returns a point-in-time view of the server's counters plus
// the process-wide streamed-coefficient memory gauges (current and peak
// row-window bytes — the §5.1 ceiling as actually observed), in a form
// ready for expvar/JSON export; see cmd/blockserverd's -debug-addr.
func (b *Blockserver) StatsSnapshot() map[string]int64 {
	inUse, peak := core.CoeffMemStats()
	snap := map[string]int64{
		"compresses":                b.Stats.Compresses.Load(),
		"decompresses":              b.Stats.Decompresses.Load(),
		"get_ranges":                b.Stats.GetRanges.Load(),
		"outsourced":                b.Stats.Outsourced.Load(),
		"errors":                    b.Stats.Errors.Load(),
		"cancelled":                 b.Stats.Cancelled.Load(),
		"in_flight":                 int64(b.InFlight()),
		"writevs":                   b.Stats.Writevs.Load(),
		"coeff_window_bytes_in_use": inUse,
		"coeff_window_bytes_peak":   peak,
	}
	// Process-wide range-decode counters (fast path vs fallback split),
	// same process-global scope as the coefficient gauges above.
	for k, v := range core.RangeStats() {
		snap[k] = v
	}
	if pf, ok := b.Outsource.(probeFailureCounter); ok {
		snap["probe_failures"] = pf.ProbeFailures()
	}
	if rr, ok := b.Outsource.(probeRTTReporter); ok {
		rtts := rr.ProbeRTTs()
		addrs := make([]string, 0, len(rtts))
		for addr := range rtts {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		for i, addr := range addrs {
			st := rtts[addr]
			snap[fmt.Sprintf("peer%d_srtt_us", i)] = st.SRTT.Microseconds()
			snap[fmt.Sprintf("peer%d_rttvar_us", i)] = st.RTTVar.Microseconds()
			snap[fmt.Sprintf("peer%d_rtt_samples", i)] = st.Samples
		}
	}
	if b.Store != nil {
		// Durability counters from a stats-capable backend (the disk
		// store): segment count, live/garbage bytes, quarantines,
		// compactions — the healing signals leptonload graphs.
		for k, v := range b.Store.BackendStats() {
			snap["store_"+k] = v
		}
	}
	b.connMu.Lock()
	p := b.pool
	b.connMu.Unlock()
	if p != nil {
		p.mu.Lock()
		snap["shards"] = int64(len(p.shards))
		for i := range p.shards {
			s := &p.shards[i]
			snap[fmt.Sprintf("shard%d_depth", i)] = int64(s.depth())
			snap[fmt.Sprintf("shard%d_done", i)] = s.jobs.Load()
			snap[fmt.Sprintf("shard%d_steals", i)] = s.steals.Load()
		}
		p.mu.Unlock()
	}
	return snap
}

// Blockserver serves Lepton conversions on a listener. It mirrors the
// production setup: a 16-core box where a few concurrent Lepton jobs
// saturate the machine, so conversions run on a fixed set of per-core
// worker shards (Shards, default GOMAXPROCS) and jobs arriving beyond
// OutsourceThreshold are forwarded elsewhere when an Outsourcer is
// configured (§5.5).
//
// Connections are persistent: each serves a request loop until the client
// closes or a streaming failure forces a teardown. Every connection is
// pinned to a shard whose worker owns a private core.Codec, so a
// connection's steady-state conversions reuse model tables, coefficient
// planes, and scratch buffers that stay resident on one core; idle workers
// steal from busy shards, so the pinning never strands throughput (see
// shards.go).
//
// Every conversion runs under a context derived from its connection: a
// peer that disconnects mid-request, or a RequestTimeout that expires,
// cancels the conversion at its next block-row checkpoint instead of
// letting it burn a worker slot to completion (the paper's per-request
// deadline discipline, §5.7). Shutdown drains the server gracefully.
type Blockserver struct {
	// Outsource, when non-nil, receives compression jobs arriving while
	// more than OutsourceThreshold conversions are in flight.
	Outsource Outsourcer
	// OutsourceThreshold is the concurrent-conversion limit; the paper used
	// "more than three conversions at a time".
	OutsourceThreshold int
	// Shards is the number of worker shards — the bound on conversions
	// running at once. 0 means one shard per core (GOMAXPROCS).
	// Requests beyond the bound queue on their connection's shard; InFlight
	// counts queued and running conversions alike so load probes and the
	// outsourcing trigger see the backlog.
	Shards int
	// WriteTimeout bounds how long one response may take to reach the
	// client; 0 means DefaultWriteTimeout. Because conversions hold a
	// worker-pool slot through their response write, a client that stops
	// reading would otherwise pin a slot forever — the deadline converts
	// that into a connection teardown.
	WriteTimeout time.Duration
	// RequestTimeout, when positive, bounds each conversion end to end: the
	// per-request context expires after this much time and the conversion
	// aborts at its next checkpoint with a StatusError response.
	RequestTimeout time.Duration
	// Codec is the pooled conversion pipeline shared by every connection;
	// nil gets a private codec on first Serve.
	Codec *core.Codec
	// EncodeOptions configures the codec.
	EncodeOptions core.EncodeOptions
	// Store, when non-nil, enables the store-backed chunk operations
	// (OpPutChunk*/OpGetChunk*).
	Store *store.Store
	// Logf, when set, receives diagnostics.
	Logf func(format string, args ...any)

	Stats Stats

	inFlight atomic.Int32
	pool     *shardPool
	connSeq  atomic.Uint32 // round-robin shard affinity for new connections
	wg       sync.WaitGroup
	closed   atomic.Bool
	draining atomic.Bool

	initOnce  sync.Once
	baseCtx   context.Context // parent of every request context
	cancelAll context.CancelFunc

	connMu sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
}

// DefaultWriteTimeout is generous against slow networks while still
// bounding how long a stalled client can hold a worker-pool slot.
const DefaultWriteTimeout = 2 * time.Minute

// srvConn wraps one accepted connection with the read-ahead state the
// request watchdog shares with the request loop, and the serving flag
// Shutdown consults to tell requests in flight from idle keepalives.
type srvConn struct {
	conn net.Conn
	// pend holds bytes the watchdog read ahead of the request loop (the
	// first byte of a pipelined next request); eof records a clean
	// half-close. Both are only touched by the watchdog goroutine and, after
	// it finishes, by the request loop — never concurrently.
	pend    []byte
	eof     bool
	serving atomic.Bool

	// affinity is the connection's preferred worker shard, assigned
	// round-robin at accept.
	affinity int
	// job is the reusable dispatch record (one request in flight per
	// connection), so steady-state shard dispatch allocates nothing.
	job shardJob
	// rbuf is the connection's reusable request-payload buffer: readRequest
	// decodes every request in place instead of allocating per request. The
	// payload handed to a job aliases it and dies at the response.
	rbuf []byte
	// fw is the reusable vectored frame writer for streamed decompress
	// responses. Only the worker running this connection's job touches it.
	fw vecFrameWriter
}

// readRequest reads one framed request into the connection's reusable
// buffer. The returned payload aliases sc.rbuf and is only valid until the
// next readRequest: every consumer either finishes with it before the
// response completes (the codec paths) or copies it (the store puts).
func (sc *srvConn) readRequest() (op byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(sc, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxPayload {
		return 0, nil, fmt.Errorf("server: request of %d bytes exceeds limit", n)
	}
	if cap(sc.rbuf) < n {
		sc.rbuf = make([]byte, n)
	}
	payload = sc.rbuf[:n]
	if _, err := io.ReadFull(sc, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// Read hands back watchdog read-ahead first, then the connection; a clean
// EOF observed by the watchdog is replayed once the read-ahead drains.
func (sc *srvConn) Read(p []byte) (int, error) {
	if len(sc.pend) > 0 {
		n := copy(p, sc.pend)
		sc.pend = sc.pend[n:]
		return n, nil
	}
	if sc.eof {
		return 0, io.EOF
	}
	return sc.conn.Read(p)
}

func (b *Blockserver) init() {
	b.initOnce.Do(func() {
		b.baseCtx, b.cancelAll = context.WithCancel(context.Background())
		b.conns = make(map[*srvConn]struct{})
		if b.OutsourceThreshold == 0 {
			b.OutsourceThreshold = 3
		}
		if b.Codec == nil {
			b.Codec = core.NewCodec()
		}
		if b.Store != nil && b.Store.Codec == nil {
			// Store-backed conversions share the server's pools.
			b.Store.Codec = b.Codec
		}
		n := b.Shards
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		// Published under connMu so StatsSnapshot can read the pool
		// concurrently with a lazy init from another goroutine's Serve.
		b.connMu.Lock()
		b.pool = newShardPool(n)
		b.connMu.Unlock()
	})
}

// Serve accepts connections until the listener is closed (Close/Shutdown).
func (b *Blockserver) Serve(ln net.Listener) error {
	b.init()
	b.connMu.Lock()
	b.ln = ln
	b.connMu.Unlock()
	if b.closed.Load() {
		// Shutdown won the race with Serve: refuse to start.
		_ = ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if b.closed.Load() {
				return nil
			}
			return err
		}
		// Register under connMu so the Add is ordered against Shutdown's
		// closed-flag publication: either the handler is counted before the
		// drain's wg.Wait begins, or the closed flag is already visible here
		// and the connection is refused. Without this ordering a
		// just-accepted connection could call wg.Add concurrently with
		// wg.Wait on a zero counter — the documented WaitGroup misuse.
		b.connMu.Lock()
		if b.closed.Load() {
			b.connMu.Unlock()
			_ = conn.Close()
			continue
		}
		b.wg.Add(1)
		b.connMu.Unlock()
		go func() {
			defer b.wg.Done()
			b.handle(conn)
		}()
	}
}

// Close stops the server immediately: the listener closes, every
// connection is torn down, and in-flight conversions are cancelled at
// their next checkpoint. Prefer Shutdown for a graceful drain.
func (b *Blockserver) Close() error {
	b.init()
	err := b.beginDrain()
	b.cancelAll()
	b.closeConns(true)
	b.wg.Wait()
	b.pool.close()
	return err
}

// beginDrain publishes the closed/draining flags and closes the listener
// under connMu, ordering the flags against Serve's accept-time wg.Add (see
// Serve). Idempotent: a Close after a Shutdown (or a double Close) must not
// re-close the listener and report a phantom net.ErrClosed.
func (b *Blockserver) beginDrain() error {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if b.closed.Load() {
		return nil
	}
	b.closed.Store(true)
	b.draining.Store(true)
	if b.ln == nil {
		return nil
	}
	return b.ln.Close()
}

// Shutdown drains the server gracefully: the listener closes immediately
// (new connections are refused), idle persistent connections are closed,
// and requests already in flight run to completion. If ctx expires before
// the drain finishes, the stragglers' request contexts are cancelled —
// conversions abort at their next block-row checkpoint — and their
// connections closed; Shutdown still waits for every handler to unwind
// before returning ctx.Err(). A nil error means a clean drain.
func (b *Blockserver) Shutdown(ctx context.Context) error {
	b.init()
	_ = b.beginDrain()
	b.closeConns(false)
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		b.pool.close()
		return nil
	case <-ctx.Done():
		b.cancelAll()
		b.closeConns(true)
		<-done
		b.pool.close()
		return ctx.Err()
	}
}

// closeConns closes tracked connections — all of them, or only those with
// no request currently being served.
func (b *Blockserver) closeConns(includeServing bool) {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	for sc := range b.conns {
		if includeServing || !sc.serving.Load() {
			_ = sc.conn.Close()
		}
	}
}

func (b *Blockserver) track(sc *srvConn) {
	b.connMu.Lock()
	b.conns[sc] = struct{}{}
	b.connMu.Unlock()
}

func (b *Blockserver) untrack(sc *srvConn) {
	b.connMu.Lock()
	delete(b.conns, sc)
	b.connMu.Unlock()
}

// beginServing flips the connection into serving state unless a drain has
// started; taken under connMu so Shutdown's idle-connection sweep cannot
// interleave with the transition.
func (b *Blockserver) beginServing(sc *srvConn) bool {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if b.draining.Load() {
		return false
	}
	sc.serving.Store(true)
	return true
}

// InFlight returns the number of conversions currently queued or running.
func (b *Blockserver) InFlight() int { return int(b.inFlight.Load()) }

func (b *Blockserver) logf(format string, args ...any) {
	if b.Logf != nil {
		b.Logf(format, args...)
	}
}

// handle runs one connection's request loop: requests are served in order
// until the peer closes (or half-closes, as the one-shot protocol does), a
// mid-stream failure makes the framing unrecoverable, or a drain begins.
func (b *Blockserver) handle(conn net.Conn) {
	sc := &srvConn{conn: conn}
	sc.affinity = int(b.connSeq.Add(1)-1) % len(b.pool.shards)
	b.track(sc)
	defer b.untrack(sc)
	defer conn.Close()
	for {
		if b.draining.Load() {
			return
		}
		op, payload, err := sc.readRequest()
		if err != nil {
			// EOF here is the normal end of a persistent connection.
			if !errors.Is(err, io.EOF) && !b.draining.Load() {
				b.Stats.Errors.Add(1)
			}
			return
		}
		if !b.beginServing(sc) {
			return
		}
		ok := b.serveOne(sc, op, payload)
		sc.serving.Store(false)
		if !ok {
			return
		}
	}
}

// withRequestCtx runs one conversion under a context derived from the
// server's base context (cancelled on forced shutdown) and the connection:
// a watchdog goroutine reads the connection while the conversion runs. The
// protocol is strictly request/response, so nothing should arrive from the
// peer before our response — a byte means the client pipelined its next
// request (kept for the next ReadRequest), a clean EOF is the one-shot
// protocol's half-close (not an abort), and a read error is a genuine
// disconnect: the request context is cancelled so the conversion stops
// burning a worker slot for a client that is gone. RequestTimeout, when
// set, bounds the whole conversion.
func (b *Blockserver) withRequestCtx(sc *srvConn, fn func(ctx context.Context) bool) bool {
	ctx, cancel := context.WithCancel(b.baseCtx)
	defer cancel()
	if b.RequestTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, b.RequestTimeout)
		defer tcancel()
	}
	var peerGone atomic.Bool
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		var one [1]byte
		for {
			n, err := sc.conn.Read(one[:])
			if n > 0 {
				sc.pend = append(sc.pend, one[0])
				return
			}
			if err != nil {
				switch {
				case errors.Is(err, io.EOF):
					sc.eof = true
				case errors.Is(err, os.ErrDeadlineExceeded):
					// Not a disconnect. The server never sets read deadlines
					// today (serveOne sets only the write deadline), but if
					// one is ever introduced, a timeout must stop the watch
					// without cancelling a healthy conversion.
				default:
					peerGone.Store(true)
					cancel()
				}
				return
			}
		}
	}()
	ok := fn(ctx)
	// The response is written: what remains is waiting for the peer's next
	// byte, which is idle time — clear serving so a drain may close the
	// connection out from under the wait. The store-then-check order pairs
	// with Shutdown's set-draining-then-sweep: whichever side runs second
	// sees the other's flag, so a request finishing mid-drain always gets
	// its connection closed.
	sc.serving.Store(false)
	if !ok || b.draining.Load() {
		// Teardown required (framing unrecoverable, or a drain is in
		// progress); closing also unblocks the watchdog if the peer is
		// still connected but silent.
		_ = sc.conn.Close()
	}
	<-watchDone
	return ok && !peerGone.Load()
}

// respondErr reports a conversion failure in-band. A context abort — the
// per-request timeout, a drain force-cancel, a cancelled queue wait — is a
// node-local condition, answered with StatusRetry so routed clients try
// another node; everything else is a deterministic StatusError.
func (b *Blockserver) respondErr(conn net.Conn, err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		b.Stats.Cancelled.Add(1)
		return WriteResponse(conn, StatusRetry, []byte(err.Error())) == nil
	}
	b.Stats.Errors.Add(1)
	return WriteResponse(conn, StatusError, []byte(err.Error())) == nil
}

// serveOne dispatches one request and reports whether the connection can
// serve another (false after a write failure or a decode error discovered
// mid-stream, when the only correct signal left is closing the
// connection).
func (b *Blockserver) serveOne(sc *srvConn, op byte, payload []byte) bool {
	conn := sc.conn
	// Bound the whole serve+respond; a client that stops reading must not
	// pin a worker-pool slot past the deadline.
	wt := b.WriteTimeout
	if wt == 0 {
		wt = DefaultWriteTimeout
	}
	if wt > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(wt))
	}
	switch op {
	case OpLoad:
		var resp [4]byte
		binary.LittleEndian.PutUint32(resp[:], uint32(b.inFlight.Load()))
		return WriteResponse(conn, StatusOK, resp[:]) == nil
	case OpCompress:
		return b.withRequestCtx(sc, func(ctx context.Context) bool {
			return b.serveCompress(ctx, sc, payload)
		})
	case OpDecompress:
		return b.withRequestCtx(sc, func(ctx context.Context) bool {
			return b.serveDecompress(ctx, sc, payload)
		})
	case OpPutChunkRaw, OpPutChunkCompressed, OpGetChunkRaw, OpGetChunkCompressed, OpListChunks, OpGetRange:
		return b.withRequestCtx(sc, func(ctx context.Context) bool {
			return b.handleStoreOp(ctx, sc, op, payload)
		})
	default:
		b.Stats.Errors.Add(1)
		return WriteResponse(conn, StatusError, []byte("unknown op")) == nil
	}
}

func (b *Blockserver) serveCompress(ctx context.Context, sc *srvConn, payload []byte) bool {
	conn := sc.conn
	// Outsource when oversubscribed (§5.5): a blockserver handling
	// many cheap requests can be randomly assigned too many Lepton
	// conversions at once. The remote round trip runs here on the
	// connection goroutine, never on a shard worker.
	if b.Outsource != nil && int(b.inFlight.Load()) >= b.OutsourceThreshold {
		if addr, ok := b.outsourceTarget(ctx); ok {
			octx, ocancel := context.WithTimeout(ctx, 30*time.Second)
			resp, err := DoCtx(octx, addr, OpCompress, payload)
			ocancel()
			if err == nil {
				b.Stats.Outsourced.Add(1)
				return WriteResponse(conn, StatusOK, resp) == nil
			}
			if ctx.Err() != nil {
				return b.respondErr(conn, ctx.Err())
			}
			b.logf("outsource to %s failed: %v; handling locally", addr, err)
		}
	}
	ok, err := b.runOnShard(ctx, sc, jobCompress, payload)
	if err != nil {
		return b.respondErr(conn, err)
	}
	return ok
}

// compressLocal runs on a shard worker with the shard's private codec.
func (b *Blockserver) compressLocal(ctx context.Context, cd *core.Codec, j *shardJob, payload []byte) bool {
	b.Stats.Compresses.Add(1)
	res, err := cd.EncodeCtx(ctx, payload, withVerify(b.EncodeOptions))
	if err != nil {
		if ctx.Err() != nil {
			return j.fail(ctx.Err())
		}
		// Unsupported inputs are service-level successes with a
		// fallback marker: production stored them with Deflate.
		if jpeg.ReasonOf(err) != jpeg.ReasonNone {
			raw, merr := rawContainer(payload)
			if merr == nil {
				return j.reply(StatusOK, raw)
			}
		}
		return j.fail(err)
	}
	return j.reply(StatusOK, res.Compressed)
}

func (b *Blockserver) serveDecompress(ctx context.Context, sc *srvConn, payload []byte) bool {
	ok, err := b.runOnShard(ctx, sc, jobDecompress, payload)
	if err != nil {
		return b.respondErr(sc.conn, err)
	}
	return ok
}

// decompressLocal runs on a shard worker with the shard's private codec.
//
// The container header records the exact output size, so the response can
// be framed up front and the reconstruction streamed into the connection
// segment by segment (§3.4) instead of being buffered whole. Output goes
// through the connection's vectored frame writer, which batches the frame
// header and the decoder's segments into a handful of writev calls; the
// queued slices alias codec-pooled buffers, which is safe precisely
// because the codec is shard-private — nothing can recycle those pools
// until this worker finishes this job, and the final flush happens before
// it does. As long as nothing has hit the wire yet, any failure — all of
// pre-stream validation, and mid-stream aborts whose output is still
// queued — can still be answered in-band on an intact connection; after
// the first flush, the header has promised size bytes and a shortfall can
// only be signaled by tearing the connection down.
func (b *Blockserver) decompressLocal(ctx context.Context, cd *core.Codec, j *shardJob, payload []byte) bool {
	conn := j.sc.conn
	b.Stats.Decompresses.Add(1)
	size, err := core.ContainerOutputSize(payload)
	if err != nil {
		b.Stats.Errors.Add(1)
		return j.reply(StatusError, []byte(err.Error()))
	}
	w := &j.sc.fw
	w.reset(conn, size, &b.Stats.Writevs)
	if err := cd.DecodeToCtx(ctx, w, payload, 0); err != nil {
		if !w.wrote {
			w.discard()
			return j.fail(err)
		}
		if ctx.Err() != nil {
			b.Stats.Cancelled.Add(1)
		} else {
			b.Stats.Errors.Add(1)
		}
		w.discard()
		b.logf("decompress stream failed: %v", err)
		return false
	}
	if !w.wrote && w.pending == 0 {
		// Zero-length output (empty raw chunk): frame it now.
		j.settle()
		return WriteResponseHeader(conn, StatusOK, size) == nil
	}
	j.settle()
	if err := w.Flush(); err != nil {
		// A response write failure: the connection is done either way.
		b.Stats.Errors.Add(1)
		return false
	}
	return true
}

func (b *Blockserver) handleStoreOp(ctx context.Context, sc *srvConn, op byte, payload []byte) bool {
	conn := sc.conn
	if b.Store == nil {
		b.Stats.Errors.Add(1)
		return WriteResponse(conn, StatusError, []byte("no store configured")) == nil
	}
	fail := func(err error) bool {
		return b.respondErr(conn, err)
	}
	switch op {
	case OpPutChunkRaw:
		// Server-side codec: the production deployment's shape.
		ok, err := b.runOnShard(ctx, sc, jobPutRaw, payload)
		if err != nil {
			return fail(err)
		}
		return ok
	case OpPutChunkCompressed:
		// Client-side codec (§7): "only" verification runs here — but that
		// is a full decode, so it takes a shard worker like any other
		// conversion; otherwise fleet-store puts would bypass the worker
		// bound and stay invisible to the load probes routing them.
		ok, err := b.runOnShard(ctx, sc, jobPutCompressed, payload)
		if err != nil {
			return fail(err)
		}
		return ok
	case OpGetChunkRaw:
		h, err := hashOf(payload)
		if err != nil {
			return fail(err)
		}
		sc.job.hash = h
		ok, rerr := b.runOnShard(ctx, sc, jobGetRaw, nil)
		if rerr != nil {
			return fail(rerr)
		}
		return ok
	case OpGetRange:
		// A range decode is a (partial) conversion, so it takes a shard
		// worker like OpGetChunkRaw; the fixed-size request is parsed here
		// on the connection goroutine.
		if len(payload) != getRangeReqLen {
			return fail(fmt.Errorf("get-range request is %d bytes, want %d", len(payload), getRangeReqLen))
		}
		h, err := hashOf(payload[:32])
		if err != nil {
			return fail(err)
		}
		off := int64(binary.LittleEndian.Uint64(payload[32:]))
		if off < 0 {
			return fail(core.ErrInvalidRange)
		}
		sc.job.hash = h
		sc.job.off = off
		sc.job.n = int64(binary.LittleEndian.Uint32(payload[40:]))
		ok, rerr := b.runOnShard(ctx, sc, jobGetRange, nil)
		if rerr != nil {
			return fail(rerr)
		}
		return ok
	case OpGetChunkCompressed:
		h, err := hashOf(payload)
		if err != nil {
			return fail(err)
		}
		cb, ok := b.Store.GetCompressedChunk(h)
		if !ok {
			// A miss is answered with its own status byte so replicated
			// readers can key read-repair on it without parsing error
			// prose; it still counts as an error for this node's stats.
			b.Stats.Errors.Add(1)
			return WriteResponse(conn, StatusNotFound, []byte("unknown chunk")) == nil
		}
		return WriteResponse(conn, StatusOK, cb) == nil
	case OpListChunks:
		// An index walk, not a conversion: served inline like the
		// compressed-get path, no shard worker.
		if len(payload) != 36 {
			return fail(fmt.Errorf("list-chunks request is %d bytes, want 36", len(payload)))
		}
		var after store.Hash
		copy(after[:], payload[:32])
		max := int(binary.LittleEndian.Uint32(payload[32:]))
		if max <= 0 || max > ListChunksPageMax {
			max = ListChunksPageMax
		}
		hashes := b.Store.HashesAfter(after, max)
		resp := make([]byte, 0, len(hashes)*32)
		for _, h := range hashes {
			resp = append(resp, h[:]...)
		}
		return WriteResponse(conn, StatusOK, resp) == nil
	}
	return true
}

// putRawLocal runs OpPutChunkRaw on a shard worker. The store paths go
// through the Store's own codec (its budgets and shutoff switch are store
// configuration); the shard still bounds their concurrency.
func (b *Blockserver) putRawLocal(ctx context.Context, j *shardJob, payload []byte) bool {
	b.Stats.Compresses.Add(1)
	ref, err := b.Store.PutFileCtx(ctx, payload)
	if err != nil {
		return j.fail(err)
	}
	if len(ref.Chunks) != 1 {
		return j.fail(fmt.Errorf("chunk payload produced %d chunks", len(ref.Chunks)))
	}
	h := ref.Chunks[0]
	return j.reply(StatusOK, h[:])
}

// putCompressedLocal runs OpPutChunkCompressed on a shard worker.
func (b *Blockserver) putCompressedLocal(ctx context.Context, j *shardJob, payload []byte) bool {
	h, err := b.Store.PutCompressedChunkCtx(ctx, payload)
	if err != nil {
		return j.fail(err)
	}
	return j.reply(StatusOK, h[:])
}

// getRawLocal runs OpGetChunkRaw on a shard worker.
func (b *Blockserver) getRawLocal(ctx context.Context, j *shardJob, h store.Hash) bool {
	b.Stats.Decompresses.Add(1)
	out, err := b.Store.GetChunkCtx(ctx, h)
	if err != nil {
		return j.fail(err)
	}
	return j.reply(StatusOK, out)
}

// getRangeLocal runs OpGetRange on a shard worker: decode only the chunk
// rows overlapping [off, off+n) and stream exactly those bytes. The range
// decoder reports the response length up front (RangeLength clamps against
// the container's recorded output size), so the response rides the same
// vectored frame writer as a full decompress — header framed lazily,
// failures before the first flush still answered in-band, a shortfall after
// it signaled by connection teardown.
func (b *Blockserver) getRangeLocal(ctx context.Context, cd *core.Codec, j *shardJob, h store.Hash, off, n int64) bool {
	conn := j.sc.conn
	b.Stats.GetRanges.Add(1)
	cb, ok := b.Store.GetCompressedChunk(h)
	if !ok {
		b.Stats.Errors.Add(1)
		return j.reply(StatusNotFound, []byte("unknown chunk"))
	}
	rlen, err := core.RangeLength(cb, off, n)
	if err != nil {
		b.Stats.Errors.Add(1)
		return j.reply(StatusError, []byte(err.Error()))
	}
	if rlen > maxPayload {
		// The client's ReadResponse caps a frame at maxPayload; a range this
		// large should be fetched as the whole chunk instead.
		b.Stats.Errors.Add(1)
		return j.reply(StatusError,
			[]byte(fmt.Sprintf("range of %d bytes exceeds the %d-byte response limit", rlen, maxPayload)))
	}
	w := &j.sc.fw
	w.reset(conn, uint32(rlen), &b.Stats.Writevs)
	if _, err := cd.DecodeRangeToCtx(ctx, w, cb, off, n, 0); err != nil {
		if !w.wrote {
			w.discard()
			return j.fail(err)
		}
		if ctx.Err() != nil {
			b.Stats.Cancelled.Add(1)
		} else {
			b.Stats.Errors.Add(1)
		}
		w.discard()
		b.logf("get-range stream failed: %v", err)
		return false
	}
	if !w.wrote && w.pending == 0 {
		// Empty range (off at or past the end): frame the zero-length body.
		j.settle()
		return WriteResponseHeader(conn, StatusOK, uint32(rlen)) == nil
	}
	j.settle()
	if err := w.Flush(); err != nil {
		b.Stats.Errors.Add(1)
		return false
	}
	return true
}

// vecFrameWriter batches a streamed decompress response — frame header
// plus decoder output segments — into vectored writes (net.Buffers, one
// writev per flush on TCP and Unix sockets) instead of a write syscall per
// segment. Queued slices are only aliases; see decompressLocal for why
// they stay valid until the flush. A small decode's entire response ships
// in a single writev.
//
// The header is queued with the first payload byte but reaches the wire
// only at the first flush, so every failure before then — not just
// pre-stream validation, as with the old unbuffered lazy writer — can
// still be reported as a StatusError on an intact connection.
type vecFrameWriter struct {
	conn    net.Conn
	size    uint32
	hdr     [5]byte
	bufs    net.Buffers
	pending int  // payload bytes queued and not yet flushed
	sent    int  // payload bytes flushed
	wrote   bool // something reached the wire; the response is committed
	writevs *atomic.Int64
}

// Flush thresholds: enough batching to collapse a typical multi-segment
// decode into a few syscalls, low enough that a large reconstruction
// streams instead of accumulating (and stays well under the kernel's 1024
// iovec ceiling).
const (
	vecFlushBytes = 256 << 10
	vecMaxIOV     = 64
)

func (w *vecFrameWriter) reset(conn net.Conn, size uint32, writevs *atomic.Int64) {
	w.conn = conn
	w.size = size
	w.pending = 0
	w.sent = 0
	w.wrote = false
	w.writevs = writevs
	w.bufs = w.bufs[:0]
}

func (w *vecFrameWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if len(w.bufs) == 0 && !w.wrote {
		w.hdr[0] = StatusOK
		binary.LittleEndian.PutUint32(w.hdr[1:], w.size)
		w.bufs = append(w.bufs, w.hdr[:])
	}
	w.bufs = append(w.bufs, p)
	w.pending += len(p)
	// The frame's last bytes wait for the handler's final Flush, which it
	// issues only after settling the job.
	if w.sent+w.pending < int(w.size) && (w.pending >= vecFlushBytes || len(w.bufs) >= vecMaxIOV) {
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// Flush writes everything queued in one vectored write.
func (w *vecFrameWriter) Flush() error {
	if len(w.bufs) == 0 {
		return nil
	}
	w.wrote = true
	if w.writevs != nil {
		w.writevs.Add(1)
	}
	// WriteTo consumes a copy of the slice header; w.bufs keeps the full
	// backing view so discard() below can release the aliased segments.
	v := w.bufs
	_, err := v.WriteTo(w.conn)
	w.sent += w.pending
	w.discard()
	return err
}

// discard drops queued-but-unflushed output and releases the aliases.
func (w *vecFrameWriter) discard() {
	for i := range w.bufs {
		w.bufs[i] = nil
	}
	w.bufs = w.bufs[:0]
	w.pending = 0
}

func hashOf(payload []byte) (store.Hash, error) {
	var h store.Hash
	if len(payload) != len(h) {
		return h, fmt.Errorf("hash must be %d bytes, got %d", len(h), len(payload))
	}
	copy(h[:], payload)
	return h, nil
}

func withVerify(opt core.EncodeOptions) core.EncodeOptions {
	opt.VerifyRoundtrip = true
	return opt
}

func rawContainer(payload []byte) ([]byte, error) {
	c := &core.Container{Mode: core.ModeRaw, Raw: payload, OutputSize: uint32(len(payload))}
	return c.Marshal()
}

// ListenAndServe starts a blockserver on addr ("unix:<path>" or
// "tcp:<host:port>") and returns it with the bound address; callers own
// Close (or Shutdown for a graceful drain).
func ListenAndServe(addr string, b *Blockserver) (bound string, err error) {
	network, address, err := splitAddr(addr)
	if err != nil {
		return "", err
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return "", err
	}
	go func() {
		if err := b.Serve(ln); err != nil {
			log.Printf("blockserver: serve: %v", err)
		}
	}()
	if network == "unix" {
		return "unix:" + ln.Addr().String(), nil
	}
	return "tcp:" + ln.Addr().String(), nil
}
