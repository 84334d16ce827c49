package sessiond

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/mar-hbo/hbo/internal/edge"
	"github.com/mar-hbo/hbo/internal/edge/sessiond/wire"
)

// Request-handling bounds, mirroring package edge's hardening.
const (
	maxRequestBytes = 4 << 20
	handlerTimeout  = 30 * time.Second
)

// OpenRequest creates (or idempotently re-finds) a session. Init is the BO
// init-sample budget; zero means the paper's 5. Policy names the optimizer
// entrant (see internal/bo/policies); empty (or "gp-ei") means the paper's
// GP-EI default.
type OpenRequest struct {
	ID        string  `json:"id"`
	Resources int     `json:"resources"`
	RMin      float64 `json:"rmin"`
	Seed      uint64  `json:"seed"`
	Init      int     `json:"init,omitempty"`
	Policy    string  `json:"policy,omitempty"`
}

// OpenResponse reports the open outcome. Existing means the session was
// already live with identical parameters and was kept as-is; Restored means
// it was re-hydrated from a durable snapshot; Evicted names the LRU victim
// this open displaced ("" when the shard had room). Observations is the
// session's current database size — after a restore, the client replays
// only the history past this point instead of all of it.
// Ephemeral marks a session whose policy cannot snapshot (it carries state
// the snapshot format cannot express): eviction drops it and re-admission
// rebuilds via the client's full replay.
type OpenResponse struct {
	ID           string `json:"id"`
	Existing     bool   `json:"existing,omitempty"`
	Restored     bool   `json:"restored,omitempty"`
	Evicted      string `json:"evicted,omitempty"`
	Observations int    `json:"observations"`
	Ephemeral    bool   `json:"ephemeral,omitempty"`
}

// SuggestRequest asks for the session's next configuration.
type SuggestRequest struct {
	ID string `json:"id"`
}

// SuggestResponse carries the suggested point and the database size it was
// drawn against.
type SuggestResponse struct {
	Point        []float64 `json:"point"`
	Observations int       `json:"observations"`
}

// ObserveRequest records one measured (point, cost) pair. Index, when
// present, is the 0-based database slot the observation belongs in, and
// makes a retried observe exactly-once: an index the session already holds
// is acknowledged without a second append, one past its size is refused.
// Absent, the observe appends (so does 4294967295, the wire's NoIndex).
type ObserveRequest struct {
	ID    string    `json:"id"`
	Point []float64 `json:"point"`
	Cost  float64   `json:"cost"`
	Index *uint32   `json:"index,omitempty"`
}

// ObserveResponse echoes the database size after the append.
type ObserveResponse struct {
	Observations int `json:"observations"`
}

// CloseRequest tears a session down.
type CloseRequest struct {
	ID string `json:"id"`
}

// CloseResponse reports whether the session existed.
type CloseResponse struct {
	Closed bool `json:"closed"`
}

// DecimateRequest fetches a decimated mesh through the session's private
// mesh cache.
type DecimateRequest struct {
	ID     string  `json:"id"`
	Object string  `json:"object"`
	Ratio  float64 `json:"ratio"`
	Fast   bool    `json:"fast,omitempty"`
}

// DecimateResponse is the edge wire mesh plus a cache-hit marker.
type DecimateResponse struct {
	Object    string           `json:"object"`
	Ratio     float64          `json:"ratio"`
	Triangles int              `json:"triangles"`
	Cached    bool             `json:"cached"`
	Mesh      edge.MeshPayload `json:"mesh"`
}

// ShardStats is one stripe's live state.
type ShardStats struct {
	Sessions   int `json:"sessions"`
	QueueDepth int `json:"queue_depth"`
}

// StreamStats reports the binary stream surface's live and lifetime
// traffic: currently open streams, frames decoded and written, and frames
// the decoder refused (each of which terminated its stream).
type StreamStats struct {
	Open         int64  `json:"open"`
	FramesIn     uint64 `json:"frames_in"`
	FramesOut    uint64 `json:"frames_out"`
	DecodeErrors uint64 `json:"decode_errors"`
}

// Streams reads the stream counters. Correct with or without a registry —
// the counters are plain atomics, like the durability ones.
func (s *Service) Streams() StreamStats {
	return StreamStats{
		Open:         s.strOpen.Load(),
		FramesIn:     s.strFramesIn.Load(),
		FramesOut:    s.strFramesOut.Load(),
		DecodeErrors: s.strDecodeErrs.Load(),
	}
}

// StatsResponse is the /session/statz payload. Durability is present only
// when a session store is configured.
type StatsResponse struct {
	Sessions   int              `json:"sessions"`
	Shards     []ShardStats     `json:"shards"`
	Stream     StreamStats      `json:"stream"`
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// Register mounts the session routes on mux. Every POST route runs behind
// the same body cap and per-handler timeout as the core edge routes.
func (s *Service) Register(mux *http.ServeMux) {
	mux.Handle("POST /session/open", serveJSON(func(_ context.Context, req OpenRequest) (OpenResponse, status) {
		return s.opOpen(req)
	}))
	mux.Handle("POST /session/suggest", serveJSON(s.suggestJSON))
	mux.Handle("POST /session/observe", serveJSON(func(_ context.Context, req ObserveRequest) (ObserveResponse, status) {
		index := wire.NoIndex
		if req.Index != nil {
			index = *req.Index
		}
		return s.opObserve([]byte(req.ID), index, req.Point, req.Cost)
	}))
	mux.Handle("POST /session/close", serveJSON(func(_ context.Context, req CloseRequest) (CloseResponse, status) {
		return s.opClose(req.ID), status{}
	}))
	mux.Handle("POST /session/decimate", serveJSON(func(_ context.Context, req DecimateRequest) (DecimateResponse, status) {
		return s.opDecimate(req)
	}))
	// The stream route is deliberately unguarded: TimeoutHandler neither
	// supports Flush nor tolerates a response that outlives the timeout, and
	// a body cap would sever a healthy long-lived stream. The wire codec's
	// per-frame bounds and the stream's queue backpressure bound it instead.
	mux.HandleFunc("POST /session/stream", s.handleStream)
	mux.HandleFunc("GET /session/statz", s.handleStats)
}

// Handler returns a standalone mux holding only the session routes (tests,
// embedding under a stripped prefix).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// serveJSON is the JSON codec around one op: decode the request from a
// body behind the size cap and handler timeout, run the op, and encode its
// result or its status. A body over the cap is a 413, any other decode
// failure a 400.
func serveJSON[Req, Resp any](op func(context.Context, Req) (Resp, status)) http.Handler {
	h := func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				err = fmt.Errorf("request body over %d bytes", tooLarge.Limit)
				writeStatus(w, failure(http.StatusRequestEntityTooLarge, err))
			} else {
				writeStatus(w, failure(http.StatusBadRequest, err))
			}
			return
		}
		resp, st := op(r.Context(), req)
		if !st.ok() {
			writeStatus(w, st)
			return
		}
		writeJSON(w, resp)
	}
	return http.TimeoutHandler(http.HandlerFunc(h), handlerTimeout, "sessiond: handler timeout")
}

// writeStatus writes a failed op's status as a plain-text HTTP error.
func writeStatus(w http.ResponseWriter, st status) {
	if st.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(st.retryAfter))
	}
	http.Error(w, st.msg, st.code)
}

// suggestJSON runs a suggest to completion for one JSON request. If the
// client goes away first, the worker still serves the job; the abandoned
// reply lands in the buffered channel and is garbage collected with it.
func (s *Service) suggestJSON(ctx context.Context, req SuggestRequest) (SuggestResponse, status) {
	job := &suggestJob{reply: make(chan suggestResult, 1)}
	if st := s.opSuggest([]byte(req.ID), job); !st.ok() {
		return SuggestResponse{}, st
	}
	select {
	case res := <-job.reply:
		return s.finishSuggest(job, res)
	case <-ctx.Done():
		return SuggestResponse{}, status{code: http.StatusServiceUnavailable, msg: "sessiond: client went away"}
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Shards: make([]ShardStats, len(s.shards))}
	for i, sh := range s.shards {
		sh.mu.Lock()
		n := len(sh.sessions)
		sh.mu.Unlock()
		resp.Shards[i] = ShardStats{Sessions: n, QueueDepth: len(sh.queue)}
		resp.Sessions += n
	}
	resp.Stream = s.Streams()
	if s.cfg.Store != nil {
		d := s.Durability()
		resp.Durability = &d
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; error reporting is the middleware's job.
		return
	}
}
