package sessiond

import (
	"errors"
	"fmt"
	"math"
	"net/http"

	"github.com/mar-hbo/hbo/internal/bo/policies"
	"github.com/mar-hbo/hbo/internal/edge"
)

// The op layer (DESIGN.md §12): every session operation the service
// serves, blind to the transport that carried it. Each op takes a decoded
// request, does the validation, the shard/store state change and its
// metrics exactly once, and returns a result plus one status. The JSON
// routes (http.go) and the binary stream (stream_server.go) are codecs
// around these functions and nothing else, so the two transports cannot
// drift apart.

// status is an op's outcome in the one taxonomy both codecs emit: the HTTP
// status code, its message, and the Retry-After hint in whole seconds. The
// zero value is success. The JSON codec writes a failure with http.Error
// and a Retry-After header, the stream codec as a TError frame, and the
// client turns either back into edge.NewStatusError.
type status struct {
	code       int
	msg        string
	retryAfter int
}

func (st status) ok() bool { return st.code == 0 }

func failure(code int, err error) status { return status{code: code, msg: err.Error()} }

// errGone is what a session's own methods report once eviction has marked
// it gone: an op that found the session before the eviction must not
// mutate it after its snapshot, so it answers 404 and the client's readmit
// restores the snapshot and replays.
var errGone = errors.New("sessiond: session evicted")

// unknown is the op layer's one 404: the session is not live here (never
// opened, closed, or evicted), and the client's readmit reopens it.
func (s *Service) unknown(id string) status {
	s.metUnknown.Inc()
	return status{code: http.StatusNotFound, msg: fmt.Sprintf("sessiond: unknown session %q", id)}
}

func validID(id string) error {
	if id == "" {
		return fmt.Errorf("sessiond: empty session id")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("sessiond: session id over %d bytes", maxIDLen)
	}
	return nil
}

// opOpen creates (or idempotently re-finds) a session.
func (s *Service) opOpen(req OpenRequest) (OpenResponse, status) {
	if err := validID(req.ID); err != nil {
		return OpenResponse{}, failure(http.StatusBadRequest, err)
	}
	p := params{
		resources: req.Resources,
		rmin:      req.RMin,
		seed:      req.Seed,
		init:      req.Init,
		policy:    policies.Canonical(req.Policy),
	}
	if p.init == 0 {
		p.init = 5
	}
	if err := p.validate(); err != nil {
		return OpenResponse{}, failure(http.StatusBadRequest, err)
	}
	sess, res, err := s.open(req.ID, p)
	if err != nil {
		return OpenResponse{}, failure(http.StatusBadRequest, err)
	}
	if res.existing {
		s.metReopens.Inc()
	} else {
		s.metOpens.Inc()
	}
	if res.evicted != "" {
		s.metEvictions.Inc()
	}
	s.metSessions.Set(float64(s.sessionCount()))
	return OpenResponse{
		ID:           req.ID,
		Existing:     res.existing,
		Restored:     res.restored,
		Evicted:      res.evicted,
		Observations: sess.observations(),
		Ephemeral:    !sess.durable,
	}, status{}
}

// opSuggest admits one suggest: it finds the session without touching it
// (a queued suggest is not use until the drain serves it) and enqueues job
// behind the shard's admission control. On success the shard worker
// answers on job.reply, and finishSuggest completes the op.
func (s *Service) opSuggest(id []byte, job *suggestJob) status {
	sess := s.find(id, false)
	if sess == nil {
		return s.unknown(string(id))
	}
	job.sess = sess
	if !s.enqueueSuggest(sess, job) {
		s.metRejects.Inc()
		return status{code: http.StatusServiceUnavailable, msg: "sessiond: suggest queue full, retry later", retryAfter: s.cfg.RetryAfterSec}
	}
	return status{}
}

// finishSuggest turns the worker's reply to an admitted suggest into the
// op's result.
func (s *Service) finishSuggest(job *suggestJob, res suggestResult) (SuggestResponse, status) {
	if errors.Is(res.err, errGone) {
		return SuggestResponse{}, s.unknown(job.sess.id)
	}
	if res.err != nil {
		return SuggestResponse{}, failure(http.StatusInternalServerError, res.err)
	}
	s.metSuggests.Inc()
	return SuggestResponse{Point: res.point, Observations: res.observations}, status{}
}

// opObserve records one (point, cost) pair at index, the 0-based database
// slot it belongs in; wire.NoIndex appends. An index the session already
// holds is a retry whose first send landed and is acknowledged without a
// second append; an index past the database size is a gap and is refused.
func (s *Service) opObserve(id []byte, index uint32, point []float64, cost float64) (ObserveResponse, status) {
	sess := s.find(id, true)
	if sess == nil {
		return ObserveResponse{}, s.unknown(string(id))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return ObserveResponse{}, status{code: http.StatusUnprocessableEntity, msg: fmt.Sprintf("sessiond: non-finite cost %v", cost)}
	}
	n, dirty, dup, err := sess.observe(index, point, cost)
	if errors.Is(err, errGone) {
		return ObserveResponse{}, s.unknown(sess.id)
	}
	if err != nil {
		return ObserveResponse{}, failure(http.StatusUnprocessableEntity, err)
	}
	s.metObserves.Inc()
	if !dup && s.cfg.SnapshotEvery > 0 && dirty >= s.cfg.SnapshotEvery {
		s.saveSession(sess, false)
	}
	return ObserveResponse{Observations: n}, status{}
}

// opClose tears a session down; it cannot fail.
func (s *Service) opClose(id string) CloseResponse {
	closed := s.remove(id)
	if closed {
		s.metCloses.Inc()
		s.metSessions.Set(float64(s.sessionCount()))
	}
	return CloseResponse{Closed: closed}
}

// opDecimate serves a decimated mesh through the session's mesh cache.
func (s *Service) opDecimate(req DecimateRequest) (DecimateResponse, status) {
	if s.dec == nil {
		return DecimateResponse{}, status{code: http.StatusNotImplemented, msg: "sessiond: no decimator attached"}
	}
	if math.IsNaN(req.Ratio) || req.Ratio <= 0 || req.Ratio > 1 {
		return DecimateResponse{}, status{code: http.StatusBadRequest, msg: fmt.Sprintf("sessiond: ratio %v out of (0,1]", req.Ratio)}
	}
	sess := s.find([]byte(req.ID), true)
	if sess == nil {
		return DecimateResponse{}, s.unknown(req.ID)
	}
	m, cached, err := sess.decimate(s.dec, req.Object, req.Ratio, req.Fast)
	if err != nil {
		return DecimateResponse{}, failure(http.StatusNotFound, err)
	}
	if cached {
		s.metMeshHits.Inc()
	} else {
		s.metMeshMisses.Inc()
	}
	s.metDecimates.Inc()
	return DecimateResponse{
		Object:    req.Object,
		Ratio:     req.Ratio,
		Triangles: m.TriangleCount(),
		Cached:    cached,
		Mesh:      edge.FromMesh(m),
	}, status{}
}
