package sessiond

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
)

// Server side of the session stream (DESIGN.md §14). One POST to
// /session/stream is one long-lived full-duplex exchange: the client ships
// binary request frames down the request body, the server ships response
// frames back in request order, and neither side pays per-call HTTP
// overhead again for the life of the stream.
//
// Concurrency shape: the handler goroutine reads and dispatches frames —
// opens, observes, and closes run inline (they are cheap, and inline
// execution preserves the per-session operation order the determinism
// contract needs); suggests are enqueued into the same shard batch workers
// the JSON path uses, behind the same admission control. A single writer
// goroutine drains an ordered queue of response slots, waiting on each
// suggest's worker reply in turn, so responses leave in exactly the order
// their requests arrived — a stronger guarantee than the per-session
// ordering clients rely on — while queued suggests from many sessions still
// batch in the shard workers concurrently.
const (
	// streamOutDepth bounds responses in flight between the reader and the
	// writer goroutine; a full queue blocks frame intake (backpressure)
	// instead of buffering unboundedly.
	streamOutDepth = 256
	// streamWriteBuf sizes the writer's coalescing buffer: pipelined
	// responses share syscalls, and the writer flushes whenever the queue
	// goes momentarily idle.
	streamWriteBuf = 4096
)

// streamPending is one slot in a stream's ordered response queue: either a
// fully built response frame, or (for suggests) a reply channel the writer
// waits on before building the frame. Slots are pooled; the embedded
// suggest job's reply channel is allocated once and reused.
type streamPending struct {
	f       wire.Frame
	job     suggestJob
	suggest bool
}

var pendingPool = sync.Pool{New: func() any {
	return &streamPending{job: suggestJob{reply: make(chan suggestResult, 1)}}
}}

func getPending() *streamPending {
	p := pendingPool.Get().(*streamPending)
	p.f.Reset()
	p.suggest = false
	p.job.sess = nil
	return p
}

func putPending(p *streamPending) { pendingPool.Put(p) }

// errFrame turns p into an error response carrying an op's status, the
// same one the JSON codec would have written.
func errFrame(p *streamPending, st status) {
	p.f.Type = wire.TError
	p.f.Status = uint16(st.code)
	p.f.RetryAfterSec = uint32(st.retryAfter)
	p.f.Msg = append(p.f.Msg[:0], st.msg...)
}

// handleStream serves one session stream. Registered without the guard
// middleware: a stream is long-lived by design, so the per-request timeout
// and body cap do not apply — per-frame bounds in the wire codec and the
// response-queue backpressure bound its resource use instead.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	// The stream interleaves reads from the request body with writes to the
	// response. HTTP/1.x needs the explicit full-duplex opt-in; natively
	// duplex transports report ErrNotSupported and work regardless.
	_ = rc.EnableFullDuplex()
	// A stream lives as long as its client: clear the server's per-request
	// read/write deadlines (zero time means none — no clock is read, and
	// dead peers are reaped by TCP keepalive).
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// Commit the headers now so the client's round trip completes and it
	// can start writing frames.
	_ = rc.Flush()

	s.metStreamOpens.Inc()
	s.metStreamsOpen.Set(float64(s.strOpen.Add(1)))
	var start time.Time
	if s.metStreamDurMS != nil {
		start = time.Now()
	}

	out := make(chan *streamPending, streamOutDepth)
	writerDone := make(chan struct{})
	go s.streamWriter(w, rc, out, writerDone)
	s.streamRead(r.Body, out)
	close(out)
	<-writerDone

	s.metStreamsOpen.Set(float64(s.strOpen.Add(-1)))
	if s.metStreamDurMS != nil {
		s.metStreamDurMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// streamRead is the handler-side frame loop: decode, dispatch, enqueue the
// response slot. A clean EOF (client closed its send side) ends the stream;
// a framing error also ends it — frames are byte-positional, so after one
// bad frame the stream cannot resync and terminating is the only safe move.
// Only codec-level rejections count as decode errors: a connection dropped
// mid-frame is ordinary churn, not corruption worth alerting on.
func (s *Service) streamRead(body io.Reader, out chan<- *streamPending) {
	fr := wire.GetReader(body)
	defer wire.PutReader(fr)
	var f wire.Frame
	for {
		if err := fr.Next(&f); err != nil {
			if wire.IsMalformed(err) {
				s.strDecodeErrs.Add(1)
				s.metStreamDecodeErrs.Inc()
			}
			return
		}
		s.strFramesIn.Add(1)
		s.metStreamFramesIn.Inc()
		p := getPending()
		p.f.Seq = f.Seq
		if st := s.streamOp(&f, p); !st.ok() {
			errFrame(p, st)
		}
		out <- p
	}
}

// streamWriter drains the ordered response queue onto the connection. Only
// this goroutine writes to w after the handler commits the headers, so no
// write lock is needed; it flushes whenever the queue goes idle so a lone
// caller never waits on a buffer and a pipelined burst still coalesces.
func (s *Service) streamWriter(w io.Writer, rc *http.ResponseController, out <-chan *streamPending, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(w, streamWriteBuf)
	fw := wire.GetWriter(bw)
	defer wire.PutWriter(fw)
	var werr error
	for p := range out {
		if p.suggest {
			// The shard worker serves every accepted job, so this receive
			// always completes; after a write error the loop keeps draining
			// replies so no worker output is left dangling.
			resp, st := s.finishSuggest(&p.job, <-p.job.reply)
			if st.ok() {
				p.f.Type = wire.TSuggestResp
				p.f.Observations = uint32(resp.Observations)
				p.f.Point = resp.Point
			} else {
				errFrame(p, st)
			}
		}
		if werr == nil {
			if err := fw.WriteFrame(&p.f); err != nil {
				werr = err
			} else {
				s.strFramesOut.Add(1)
				s.metStreamFramesOut.Inc()
				if len(out) == 0 {
					if err := bw.Flush(); err != nil {
						werr = err
					} else {
						_ = rc.Flush()
					}
				}
			}
		}
		putPending(p)
	}
}

// streamOp decodes one request frame into its op and encodes the result
// into p. A suggest only enqueues here; the writer goroutine completes it
// when the worker replies. Hello is the stream's own version check, not a
// session op: a client version this server does not know is refused, and
// the client fails its dial.
func (s *Service) streamOp(f *wire.Frame, p *streamPending) status {
	switch f.Type {
	case wire.THelloReq:
		if f.Version != wire.Version {
			return status{code: http.StatusHTTPVersionNotSupported,
				msg: fmt.Sprintf("sessiond: unsupported wire version %d (server speaks %d)", f.Version, wire.Version)}
		}
		p.f.Type = wire.THelloResp
		p.f.Version = wire.Version
	case wire.TOpenReq:
		resp, st := s.opOpen(OpenRequest{
			ID:        string(f.ID),
			Resources: int(f.Resources),
			RMin:      f.RMin,
			Seed:      f.Seed,
			Init:      int(f.Init),
			Policy:    string(f.Policy),
		})
		if !st.ok() {
			return st
		}
		p.f.Type = wire.TOpenResp
		if resp.Existing {
			p.f.Flags |= wire.FlagExisting
		}
		if resp.Restored {
			p.f.Flags |= wire.FlagRestored
		}
		if resp.Ephemeral {
			p.f.Flags |= wire.FlagEphemeral
		}
		p.f.Evicted = append(p.f.Evicted[:0], resp.Evicted...)
		p.f.Observations = uint32(resp.Observations)
	case wire.TSuggestReq:
		if st := s.opSuggest(f.ID, &p.job); !st.ok() {
			return st
		}
		p.suggest = true
	case wire.TObserveReq:
		resp, st := s.opObserve(f.ID, f.Index, f.Point, f.Cost)
		if !st.ok() {
			return st
		}
		p.f.Type = wire.TObserveResp
		p.f.Observations = uint32(resp.Observations)
	case wire.TCloseReq:
		p.f.Type = wire.TCloseResp
		p.f.Closed = s.opClose(string(f.ID)).Closed
	default:
		return status{code: http.StatusBadRequest, msg: fmt.Sprintf("sessiond: unexpected %v frame", f.Type)}
	}
	return status{}
}
