package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mar-hbo/hbo/internal/edge/sessiond"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/obs"
)

// Headers the traced run adds so client and server spans of one request
// share an identifier: a request number on the JSON routes, a connection
// number on the stream (whose frames then carry the request's seq).
const (
	hdrRequest = "X-Perfbench-Req"
	hdrConn    = "X-Perfbench-Conn"
)

// maxCapturedFrames bounds how many raw stream frames the traced run keeps
// for the wire codec's encode/decode timing.
const maxCapturedFrames = 4096

// maxSpans bounds the spans one traced run keeps in memory (about 30 MB);
// later spans are counted as dropped. The per-layer times then come from
// the first maxSpans spans of the traced half.
const maxSpans = 250_000

// span is one timed call into a layer, recorded from the benchmark's own
// files. ID joins the client and server spans of one request. On an edge
// span, Session and Ord join a served suggest to its reference replay: Ord
// is the call's ordinal among the session's successful calls of that op,
// counted as replies arrive, and noOrd on an attempt that failed (such as
// a suggest answered 404 before a readmit).
type span struct {
	ID      string `json:"id,omitempty"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	Ord     int    `json:"ord,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	// N is the GP history size a bo span's Next ran at.
	N     int   `json:"n,omitempty"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// noOrd is the Ord of a failed attempt.
const noOrd = -1

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// logEntry is one op of a served session as the client issued it: an
// observe of (Point, Cost), or a suggest that returned Point.
type logEntry struct {
	Suggest bool
	Ord     int
	Point   []float64
	Cost    float64
}

// sessLog is a served session's full op history, the input of the bo
// reference replay.
type sessLog struct {
	ID      string
	Seed    uint64
	Init    int
	Entries []logEntry
}

// tracer collects the traced run's spans, op logs and obs counters. A nil
// *tracer is the untraced run: every method is a no-op, and the workloads
// install no wrappers at all.
type tracer struct {
	epoch time.Time
	reg   *obs.Registry

	mu      sync.Mutex
	spans   []span
	dropped int
	logs    map[string]*sessLog
	frames  [][]byte
	ords    map[callKey]int

	frameBytes atomic.Int64
	frameCount atomic.Int64
	flushes    atomic.Int64
	outFrames  atomic.Int64
	nextReq    atomic.Int64
	nextConn   atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reg: obs.New(), logs: make(map[string]*sessLog), ords: make(map[callKey]int)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// time runs fn inside a span of the given layer and name; n is the
// span's N (0 outside bo).
func (t *tracer) time(layer, name string, n int, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(span{Layer: layer, Name: name, N: n, Start: start, End: t.now()})
}

// log returns the op log of a served session, creating it on first use.
// Only the caller that owns the session appends to it.
func (t *tracer) log(id string, seed uint64, init int) *sessLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.logs[id]
	if !ok {
		l = &sessLog{ID: id, Seed: seed, Init: init}
		t.logs[id] = l
	}
	return l
}

// succeeded counts a successful call of op on session and returns its
// ordinal among them. A session's calls of one op are sequential (its
// caller waits for each reply), so the ordinals match the client's.
func (t *tracer) succeeded(session, op string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := callKey{session: session, op: op}
	ord := t.ords[k]
	t.ords[k] = ord + 1
	return ord
}

// registry is the obs registry for SetObserver hooks; nil when untraced.
func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *tracer) captureFrame(raw []byte) {
	t.frameBytes.Add(int64(len(raw)))
	t.frameCount.Add(1)
	t.mu.Lock()
	if len(t.frames) < maxCapturedFrames {
		t.frames = append(t.frames, append([]byte(nil), raw...))
	}
	t.mu.Unlock()
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// callKey identifies a client call by session, op and ordinal.
type callKey struct {
	session string
	op      string
	ord     int
}

type callKeyCtx struct{}

// withCall tells the JSON transport wrapper which session and op a request
// belongs to; the wrapper assigns the ordinal once the reply is in.
func withCall(ctx context.Context, t *tracer, session, op string) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, callKeyCtx{}, callKey{session: session, op: op})
}

// routeOp names the session op behind a JSON route.
func routeOp(path string) string {
	switch path {
	case "/session/open":
		return "open"
	case "/session/suggest":
		return "suggest"
	case "/session/observe":
		return "observe"
	case "/session/close":
		return "close"
	case "/session/decimate":
		return "decimate"
	}
	return path
}

// frameOp names the session op behind a stream frame type.
func frameOp(t wire.Type) string {
	switch t {
	case wire.TOpenReq, wire.TOpenResp:
		return "open"
	case wire.TSuggestReq, wire.TSuggestResp:
		return "suggest"
	case wire.TObserveReq, wire.TObserveResp:
		return "observe"
	case wire.TCloseReq, wire.TCloseResp:
		return "close"
	case wire.THelloReq, wire.THelloResp:
		return "hello"
	}
	return "error"
}

// frameSplitter cuts a byte stream into length-prefixed wire frames as it
// passes through, decoding each complete frame and reporting it with the
// time its last byte moved.
type frameSplitter struct {
	buf []byte
	f   wire.Frame
	on  func(f *wire.Frame, raw []byte, at int64)
}

func (s *frameSplitter) feed(p []byte, at int64) {
	s.buf = append(s.buf, p...)
	off := 0
	for len(s.buf)-off >= 4 {
		n := int(binary.LittleEndian.Uint32(s.buf[off:]))
		if len(s.buf)-off < 4+n {
			break
		}
		raw := s.buf[off : off+4+n]
		if wire.DecodeFrame(raw[4:], &s.f) == nil {
			s.on(&s.f, raw, at)
		}
		off += 4 + n
	}
	s.buf = append(s.buf[:0], s.buf[off:]...)
}

// tapReader feeds everything read through it to a frame splitter.
type tapReader struct {
	io.ReadCloser
	t     *tracer
	split frameSplitter
}

func (r *tapReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	if n > 0 {
		r.split.feed(p[:n], r.t.now())
	}
	return n, err
}

// streamClientSide pairs each request frame a client sends with the
// response frame it gets back, per connection, into an edge span. Only a
// success reply gives the span an ordinal; an error frame (a 404 before a
// readmit) leaves it at noOrd.
type streamClientSide struct {
	t    *tracer
	conn string

	mu   sync.Mutex
	sent map[uint64]span
}

func (c *streamClientSide) onSend(f *wire.Frame, raw []byte, at int64) {
	c.t.captureFrame(raw)
	c.mu.Lock()
	c.sent[f.Seq] = span{ID: "s" + c.conn + "." + strconv.FormatUint(f.Seq, 10), Layer: "edge",
		Name: frameOp(f.Type), Session: string(f.ID), Ord: noOrd, Start: at}
	c.mu.Unlock()
}

func (c *streamClientSide) onRecv(f *wire.Frame, raw []byte, at int64) {
	c.t.captureFrame(raw)
	c.mu.Lock()
	s, ok := c.sent[f.Seq]
	delete(c.sent, f.Seq)
	c.mu.Unlock()
	if ok {
		if f.Type != wire.TError {
			s.Ord = c.t.succeeded(s.Session, s.Name)
		}
		s.End = at
		c.t.add(s)
	}
}

// traceTransport is the edge client's http.RoundTripper in the traced run.
// JSON requests get a request-number header and an edge span from send to
// response-body close; stream requests get a connection-number header and
// per-frame edge spans recovered from the bytes on the wire.
type traceTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	req = req.Clone(req.Context())
	if req.URL.Path == "/session/stream" {
		conn := strconv.FormatInt(t.nextConn.Add(1), 10)
		req.Header.Set(hdrConn, conn)
		side := &streamClientSide{t: t, conn: conn, sent: make(map[uint64]span)}
		if req.Body != nil {
			req.Body = &tapReader{ReadCloser: req.Body, t: t, split: frameSplitter{on: side.onSend}}
		}
		resp, err := tt.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &tapReader{ReadCloser: resp.Body, t: t, split: frameSplitter{on: side.onRecv}}
		return resp, nil
	}
	id := "j" + strconv.FormatInt(t.nextReq.Add(1), 10)
	req.Header.Set(hdrRequest, id)
	s := span{ID: id, Layer: "edge", Name: routeOp(req.URL.Path), Ord: noOrd, Start: t.now()}
	k, keyed := req.Context().Value(callKeyCtx{}).(callKey)
	if keyed {
		s.Session = k.session
	}
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if keyed && resp.StatusCode/100 == 2 {
		s.Ord = t.succeeded(k.session, k.op)
	}
	resp.Body = &spanOnClose{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

// spanOnClose ends an edge span when the client closes the response body,
// so the span covers reading and decoding the reply too.
type spanOnClose struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// wrapHandler wraps the session service's handler: a sessiond span per
// JSON request (keyed by the request-number header) and, on the stream, a
// sessiond span per frame from the moment the server has read the request
// frame to the moment it hands the response bytes to the connection.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/session/stream" {
			s := span{ID: r.Header.Get(hdrRequest), Layer: "sessiond", Name: routeOp(r.URL.Path), Start: t.now()}
			h.ServeHTTP(w, r)
			s.End = t.now()
			t.add(s)
			return
		}
		side := &streamServerSide{t: t, conn: r.Header.Get(hdrConn), arrived: make(map[uint64]span)}
		r.Body = &tapReader{ReadCloser: r.Body, t: t, split: frameSplitter{on: side.onRead}}
		tw := &tapWriter{ResponseWriter: w, t: t, split: frameSplitter{on: side.onWrite}}
		h.ServeHTTP(tw, r)
	})
}

// streamServerSide pairs request frames the server read with the response
// frames it wrote, per connection, into sessiond spans.
type streamServerSide struct {
	t    *tracer
	conn string

	mu      sync.Mutex
	arrived map[uint64]span
}

func (s *streamServerSide) onRead(f *wire.Frame, _ []byte, at int64) {
	s.mu.Lock()
	s.arrived[f.Seq] = span{ID: "s" + s.conn + "." + strconv.FormatUint(f.Seq, 10), Layer: "sessiond",
		Name: frameOp(f.Type), Session: string(f.ID), Start: at}
	s.mu.Unlock()
}

func (s *streamServerSide) onWrite(f *wire.Frame, _ []byte, at int64) {
	s.t.outFrames.Add(1)
	s.mu.Lock()
	sp, ok := s.arrived[f.Seq]
	delete(s.arrived, f.Seq)
	s.mu.Unlock()
	if ok {
		sp.End = at
		s.t.add(sp)
	}
}

// tapWriter splits the stream handler's output into frames and counts its
// flushes. It implements FlushError and Unwrap so http.ResponseController
// still reaches the real connection for flushes, deadlines and duplex.
type tapWriter struct {
	http.ResponseWriter
	t     *tracer
	split frameSplitter
}

func (w *tapWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	if n > 0 {
		w.split.feed(p[:n], w.t.now())
	}
	return n, err
}

func (w *tapWriter) FlushError() error {
	w.t.flushes.Add(1)
	return http.NewResponseController(w.ResponseWriter).Flush()
}

func (w *tapWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// timedStore is a SessionStore decorator recording a snapstore span per
// Put and Get.
type timedStore struct {
	sessiond.SessionStore
	t *tracer
}

func (s *timedStore) Put(id string, blob []byte) error {
	start := s.t.now()
	err := s.SessionStore.Put(id, blob)
	s.t.add(span{Layer: "snapstore", Name: "put", Session: id, Bytes: len(blob), Start: start, End: s.t.now()})
	return err
}

func (s *timedStore) Get(id string) ([]byte, bool, error) {
	start := s.t.now()
	blob, ok, err := s.SessionStore.Get(id)
	s.t.add(span{Layer: "snapstore", Name: "get", Session: id, Bytes: len(blob), Start: start, End: s.t.now()})
	return blob, ok, err
}

// timedDecimator is a Decimator decorator recording a mesh span per call.
type timedDecimator struct {
	next sessiond.Decimator
	t    *tracer
}

func (d *timedDecimator) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	start := d.t.now()
	m, err := d.next.Decimate(object, ratio, fast)
	d.t.add(span{Layer: "mesh", Name: "decimate", Session: object, Start: start, End: d.t.now()})
	return m, err
}
