package sessiond

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
)

// errStreamClientClosed fails calls issued after Close.
var errStreamClientClosed = errors.New("sessiond: stream client closed")

// StreamClient multiplexes session calls from any number of sessions over
// one binary stream connection per server (DESIGN.md §14). Every call runs
// through the owning edge.Client's Execute, so the retry/backoff/breaker
// machinery governs stream traffic exactly as it governs JSON posts — a
// dead connection surfaces as a failed attempt, and the retry's next
// attempt transparently redials. Safe for concurrent use.
type StreamClient struct {
	ec *edge.Client

	// dialMu serializes dialing (the Hello probe plus the streaming
	// exchange), so a burst of first calls shares one connection instead of
	// racing to open one each.
	dialMu sync.Mutex //hbo:lockleaf single-flight dial: serializing the blocking probe is this mutex's entire job

	mu     sync.Mutex
	conn   *streamConn
	closed bool
}

// NewStreamClient builds a stream transport on top of an edge client. The
// edge client supplies the HTTP connection pool, base URL, per-attempt
// timeout, and the whole fault-tolerance stack.
func NewStreamClient(ec *edge.Client) (*StreamClient, error) {
	if ec == nil {
		return nil, fmt.Errorf("sessiond: nil edge client")
	}
	return &StreamClient{ec: ec}, nil
}

// Close tears down the live connection (the server sees EOF and ends the
// stream) and fails all future calls fast.
func (sc *StreamClient) Close() error {
	sc.mu.Lock()
	sc.closed = true
	cn := sc.conn
	sc.conn = nil
	sc.mu.Unlock()
	if cn != nil {
		cn.fail(errStreamClientClosed)
	}
	return nil
}

// streamCall is one in-flight request/response pair. Pooled; the reply
// channel is allocated once and reused, and both frames keep their slice
// capacity across uses.
type streamCall struct {
	req  wire.Frame
	resp wire.Frame
	done chan error
}

var callPool = sync.Pool{New: func() any {
	return &streamCall{done: make(chan error, 1)}
}}

func getCall() *streamCall {
	c := callPool.Get().(*streamCall)
	// Drain a stale completion a previous abandoned use may have left.
	select {
	case <-c.done:
	default:
	}
	c.req.Reset()
	c.resp.Reset()
	return c
}

func putCall(c *streamCall) { callPool.Put(c) }

// streamConn is one live stream connection: a pipe feeding the request
// body, the response body feeding a reader goroutine, and the table of
// calls awaiting their response frame.
type streamConn struct {
	cancel context.CancelFunc // tears down the HTTP exchange
	body   io.ReadCloser      // response body: frames in
	pw     *io.PipeWriter     // request body: frames out

	wmu sync.Mutex
	fw  *wire.Writer

	mu      sync.Mutex
	err     error
	seq     uint64
	pending map[uint64]*streamCall
}

func (cn *streamConn) dead() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err != nil
}

// fail poisons the connection: every waiting and future call gets err, the
// request pipe is broken (the server sees the stream end), and the HTTP
// exchange is cancelled. Idempotent; the first error wins.
func (cn *streamConn) fail(err error) {
	cn.mu.Lock()
	if cn.err != nil {
		cn.mu.Unlock()
		return
	}
	cn.err = err
	pend := cn.pending
	cn.pending = nil
	cn.mu.Unlock()
	_ = cn.pw.CloseWithError(err)
	_ = cn.body.Close()
	cn.cancel()
	for _, c := range pend {
		c.done <- err
	}
}

// readLoop demultiplexes response frames to their waiting calls by
// sequence number. Frames for abandoned calls are dropped. Any read or
// decode error — including a clean EOF, which mid-conversation means the
// server went away — poisons the connection; the callers' retry loops
// redial.
func (cn *streamConn) readLoop() {
	fr := wire.NewReader(cn.body)
	var f wire.Frame
	for {
		if err := fr.Next(&f); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			cn.fail(fmt.Errorf("sessiond: stream read: %w", err))
			return
		}
		cn.mu.Lock()
		c := cn.pending[f.Seq]
		delete(cn.pending, f.Seq)
		cn.mu.Unlock()
		if c == nil {
			continue
		}
		if f.Type == wire.TError {
			// Server rejections map onto the same typed errors the JSON
			// transport produces, so StatusCode, Retry-After honoring, and
			// the eviction/readmit logic work unchanged.
			c.done <- edge.NewStatusError(int(f.Status), string(f.Msg),
				time.Duration(f.RetryAfterSec)*time.Second)
			continue
		}
		c.resp.CopyFrom(&f)
		c.done <- nil
	}
}

// abandon detaches a call whose caller stopped waiting. If the call was
// still pending the reader can never touch it again and it is safe to
// reuse; if the reader already took it, the completion is consumed so the
// pooled call carries no stale state.
func (cn *streamConn) abandon(c *streamCall, seq uint64) {
	cn.mu.Lock()
	_, pending := cn.pending[seq]
	delete(cn.pending, seq)
	cn.mu.Unlock()
	if !pending {
		<-c.done
	}
}

// roundTrip sends one request frame and waits for its response frame. The
// response lands in c.resp. A context expiry while waiting abandons only
// this call; a stalled frame write poisons the whole connection (the pipe
// is a serialization point — if it is stuck, so is every other call).
func (cn *streamConn) roundTrip(ctx context.Context, c *streamCall) error {
	cn.mu.Lock()
	if cn.err != nil {
		err := cn.err
		cn.mu.Unlock()
		return err
	}
	cn.seq++
	seq := cn.seq
	c.req.Seq = seq
	cn.pending[seq] = c
	cn.mu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		cn.fail(fmt.Errorf("sessiond: stream write stalled: %w", context.Cause(ctx)))
	})
	cn.wmu.Lock()
	werr := cn.fw.WriteFrame(&c.req)
	cn.wmu.Unlock()
	stop()
	if werr != nil {
		cn.abandon(c, seq)
		cn.fail(fmt.Errorf("sessiond: stream write: %w", werr))
		return werr
	}
	select {
	case err := <-c.done:
		return err
	case <-ctx.Done():
		cn.abandon(c, seq)
		return ctx.Err()
	}
}

// getConn returns the live connection, dialing (and handshaking) if there
// is none.
func (sc *StreamClient) getConn(ctx context.Context) (*streamConn, error) {
	sc.dialMu.Lock()
	defer sc.dialMu.Unlock()
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, edge.Permanent(errStreamClientClosed)
	}
	if cn := sc.conn; cn != nil && !cn.dead() {
		sc.mu.Unlock()
		return cn, nil
	}
	sc.mu.Unlock()

	cn, err := sc.dial(ctx)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		cn.fail(errStreamClientClosed)
		return nil, edge.Permanent(errStreamClientClosed)
	}
	sc.conn = cn
	sc.mu.Unlock()
	return cn, nil
}

// probe runs the Hello version handshake as one ordinary finite POST: a
// single Hello frame as the whole request body. This is deliberately NOT
// the streaming exchange — a server without the route would sit on an
// endless request body waiting for EOF before it could even deliver its
// 404, deadlocking against a client waiting for that response. A finite
// probe gets an answer from every server: one that speaks this version
// echoes a Hello frame; a missing route or a version refusal fails the
// dial as edge.Permanent, because no retry can change what the server
// speaks (and a Permanent error leaves the breaker alone).
func (sc *StreamClient) probe(ctx context.Context) error {
	var hello wire.Frame
	hello.Type = wire.THelloReq
	hello.Version = wire.Version
	body, err := wire.AppendFrame(nil, &hello)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sc.ec.BaseURL()+"/session/stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := sc.ec.HTTPClient().Do(req)
	if err != nil {
		return fmt.Errorf("sessiond: stream probe: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		_ = resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented:
		// No such route. Distinct from a session-level 404 — this must
		// never look like an eviction to the readmit logic, hence no
		// status error.
		return edge.Permanent(fmt.Errorf("sessiond: server has no session stream: %s", resp.Status))
	default:
		return fmt.Errorf("sessiond: stream probe: server returned %s", resp.Status)
	}
	fr := wire.NewReader(resp.Body)
	var f wire.Frame
	if err := fr.Next(&f); err != nil {
		return fmt.Errorf("sessiond: stream probe: %w", err)
	}
	if f.Type != wire.THelloResp || f.Version != wire.Version {
		// Including a TError refusal for an unsupported version: whatever
		// this server speaks, it is not our protocol.
		return edge.Permanent(fmt.Errorf("sessiond: server refused wire version %d", wire.Version))
	}
	return nil
}

// dial verifies protocol support with a finite probe, then opens the
// long-lived streaming exchange. ctx bounds only the dial — the
// established stream outlives the dialing call, living on a detached
// context until fail tears it down.
func (sc *StreamClient) dial(ctx context.Context) (*streamConn, error) {
	if err := sc.probe(ctx); err != nil {
		return nil, err
	}
	connCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	// If the dialing attempt dies before the exchange is established, kill
	// it; once Do returns the watchdog is detached.
	stop := context.AfterFunc(ctx, cancel)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(connCtx, http.MethodPost, sc.ec.BaseURL()+"/session/stream", pr)
	if err != nil {
		stop()
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := sc.ec.HTTPClient().Do(req)
	if err != nil {
		stop()
		cancel()
		_ = pw.CloseWithError(err)
		return nil, fmt.Errorf("sessiond: stream dial: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		// The probe just said this route exists; anything but 200 here is a
		// transient server problem, worth a retry.
		stop()
		cancel()
		_ = pw.Close()
		_ = resp.Body.Close()
		return nil, fmt.Errorf("sessiond: stream dial: server returned %s", resp.Status)
	}
	stop()
	cn := &streamConn{
		cancel:  cancel,
		body:    resp.Body,
		pw:      pw,
		fw:      wire.NewWriter(pw),
		pending: make(map[uint64]*streamCall),
	}
	go cn.readLoop()
	return cn, nil
}

// do runs one stream round trip under the edge client's full
// fault-tolerance stack. A connection lost mid-call is just a failed
// attempt: the retry redials through getConn, and the breaker sees stream
// and JSON failures as one health signal.
func (sc *StreamClient) do(ctx context.Context, label string, c *streamCall) error {
	return sc.ec.Execute(ctx, label, func(ctx context.Context) error {
		actx, cancel := context.WithTimeout(ctx, sc.ec.AttemptTimeout())
		defer cancel()
		cn, err := sc.getConn(actx)
		if err != nil {
			return err
		}
		return cn.roundTrip(actx, c)
	})
}

// Open creates (or idempotently re-finds) the server-side session over the
// stream; the response is identical to the JSON route's.
func (sc *StreamClient) Open(ctx context.Context, req OpenRequest) (OpenResponse, error) {
	c := getCall()
	defer putCall(c)
	c.req.Type = wire.TOpenReq
	c.req.ID = append(c.req.ID[:0], req.ID...)
	c.req.Resources = uint32(req.Resources)
	c.req.RMin = req.RMin
	c.req.Seed = req.Seed
	c.req.Init = uint32(req.Init)
	if req.Policy != "" {
		c.req.Flags |= wire.FlagPolicy
		c.req.Policy = append(c.req.Policy[:0], req.Policy...)
	}
	if err := sc.do(ctx, "stream open", c); err != nil {
		return OpenResponse{}, err
	}
	if c.resp.Type != wire.TOpenResp {
		return OpenResponse{}, fmt.Errorf("sessiond: server answered open with frame type %d", c.resp.Type)
	}
	return OpenResponse{
		ID:           req.ID,
		Existing:     c.resp.Flags&wire.FlagExisting != 0,
		Restored:     c.resp.Flags&wire.FlagRestored != 0,
		Evicted:      string(c.resp.Evicted),
		Observations: int(c.resp.Observations),
		Ephemeral:    c.resp.Flags&wire.FlagEphemeral != 0,
	}, nil
}

// Suggest asks for the session's next configuration. The returned point is
// the caller's to keep.
func (sc *StreamClient) Suggest(ctx context.Context, id string) (SuggestResponse, error) {
	c := getCall()
	defer putCall(c)
	c.req.Type = wire.TSuggestReq
	c.req.ID = append(c.req.ID[:0], id...)
	if err := sc.do(ctx, "stream suggest", c); err != nil {
		return SuggestResponse{}, err
	}
	if c.resp.Type != wire.TSuggestResp {
		return SuggestResponse{}, fmt.Errorf("sessiond: server answered suggest with frame type %d", c.resp.Type)
	}
	return SuggestResponse{
		Point:        append([]float64(nil), c.resp.Point...),
		Observations: int(c.resp.Observations),
	}, nil
}

// Observe records one (point, cost) pair. index is the 0-based database
// slot the observation belongs in (the count of observations the server
// held when it was measured); a retried observe whose first send actually
// landed is then acknowledged instead of double-applied. index < 0 sends
// wire.NoIndex, an unconditional append.
func (sc *StreamClient) Observe(ctx context.Context, id string, index int, point []float64, cost float64) (ObserveResponse, error) {
	c := getCall()
	defer putCall(c)
	c.req.Type = wire.TObserveReq
	c.req.ID = append(c.req.ID[:0], id...)
	if index < 0 {
		c.req.Index = wire.NoIndex
	} else {
		c.req.Index = uint32(index)
	}
	c.req.Cost = cost
	c.req.Point = append(c.req.Point[:0], point...)
	if err := sc.do(ctx, "stream observe", c); err != nil {
		return ObserveResponse{}, err
	}
	if c.resp.Type != wire.TObserveResp {
		return ObserveResponse{}, fmt.Errorf("sessiond: server answered observe with frame type %d", c.resp.Type)
	}
	return ObserveResponse{Observations: int(c.resp.Observations)}, nil
}

// CloseSession tears the server-side session down.
func (sc *StreamClient) CloseSession(ctx context.Context, id string) (CloseResponse, error) {
	c := getCall()
	defer putCall(c)
	c.req.Type = wire.TCloseReq
	c.req.ID = append(c.req.ID[:0], id...)
	if err := sc.do(ctx, "stream close", c); err != nil {
		return CloseResponse{}, err
	}
	if c.resp.Type != wire.TCloseResp {
		return CloseResponse{}, fmt.Errorf("sessiond: server answered close with frame type %d", c.resp.Type)
	}
	return CloseResponse{Closed: c.resp.Closed}, nil
}
