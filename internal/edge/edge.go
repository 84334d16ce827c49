// Package edge implements the edge-server side of the paper's Figure 3
// architecture: a small HTTP service that runs the virtual-object decimation
// algorithm for its clients. The matching client keeps a local cache of
// decimated versions, exactly as the paper's HBO control plane does ("each
// decimated version can either be found in the local cache or downloaded
// from a server"), and carries the fault-tolerance stack (retries, backoff,
// circuit breaker) every edge call rides on. The §VI option of offloading
// the Bayesian-optimization step itself lives in package sessiond, which
// keeps each client's optimizer alive server-side.
package edge

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/mar-hbo/hbo/internal/mesh"
	"github.com/mar-hbo/hbo/internal/obs"
	"github.com/mar-hbo/hbo/internal/render"
)

// Server-side request limits: an unbounded body pins memory, and a handler
// that never finishes pins a connection.
const (
	// maxRequestBytes bounds any request body.
	maxRequestBytes = 4 << 20
	// handlerTimeout bounds one request's server-side work.
	handlerTimeout = 30 * time.Second
)

// DecimateRequest asks for a decimated version of a catalog object. Fast
// selects the vertex-clustering path (coarser quality, much lower server
// latency) instead of the default quadric edge collapse.
type DecimateRequest struct {
	Object string  `json:"object"`
	Ratio  float64 `json:"ratio"`
	Fast   bool    `json:"fast,omitempty"`
}

// MeshPayload is a wire-format triangle mesh.
type MeshPayload struct {
	Vertices  [][3]float64 `json:"vertices"`
	Triangles [][3]int     `json:"triangles"`
}

// ToMesh converts the payload to a mesh.
func (p MeshPayload) ToMesh() *mesh.Mesh {
	m := &mesh.Mesh{
		Vertices:  make([]mesh.Vec3, len(p.Vertices)),
		Triangles: make([]mesh.Triangle, len(p.Triangles)),
	}
	for i, v := range p.Vertices {
		m.Vertices[i] = mesh.Vec3{X: v[0], Y: v[1], Z: v[2]}
	}
	for i, t := range p.Triangles {
		m.Triangles[i] = mesh.Triangle{t[0], t[1], t[2]}
	}
	return m
}

// FromMesh converts a mesh to its wire format.
func FromMesh(m *mesh.Mesh) MeshPayload {
	p := MeshPayload{
		Vertices:  make([][3]float64, len(m.Vertices)),
		Triangles: make([][3]int, len(m.Triangles)),
	}
	for i, v := range m.Vertices {
		p.Vertices[i] = [3]float64{v.X, v.Y, v.Z}
	}
	for i, t := range m.Triangles {
		p.Triangles[i] = [3]int{t[0], t[1], t[2]}
	}
	return p
}

// DecimateResponse carries the decimated mesh.
type DecimateResponse struct {
	Object    string      `json:"object"`
	Ratio     float64     `json:"ratio"`
	Triangles int         `json:"triangles"`
	Mesh      MeshPayload `json:"mesh"`
}

// Server is the edge service. It owns the object catalog whose meshes it can
// decimate. Safe for concurrent use: net/http serves each request on its own
// goroutine.
type Server struct {
	specs map[string]render.ObjectSpec

	mu     sync.Mutex
	meshes map[string]*mesh.Mesh // full-quality geometry, built lazily

	// reg is the attached metrics registry; nil leaves Handler uninstrumented
	// (no wrapper, no per-request overhead at all).
	reg *obs.Registry
}

// SetObserver attaches a metrics registry to the server: per-endpoint request
// and error counters plus wall-clock latency histograms. Call before
// Handler(); passing nil (the default) keeps the routes unwrapped.
func (s *Server) SetObserver(reg *obs.Registry) { s.reg = reg }

// NewServer builds a server for the given catalog.
func NewServer(specs []render.ObjectSpec) (*Server, error) {
	s := &Server{
		specs:  make(map[string]render.ObjectSpec, len(specs)),
		meshes: make(map[string]*mesh.Mesh),
	}
	for _, sp := range specs {
		if _, dup := s.specs[sp.Name]; dup {
			return nil, fmt.Errorf("edge: duplicate spec %q", sp.Name)
		}
		s.specs[sp.Name] = sp
	}
	return s, nil
}

// Handler returns the HTTP routes. Every POST handler runs behind a
// request-body size cap and a per-handler timeout, so one abusive or stuck
// request cannot pin the server's memory or connections.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /decimate", s.instrument("decimate", guard(s.handleDecimate)))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}

// instrument wraps a route with request/error counters and a latency
// histogram when a registry is attached; with none it returns h unchanged.
// Instruments are resolved once here, so the per-request cost is two atomic
// increments and a histogram observe.
func (s *Server) instrument(name string, h http.Handler) http.Handler {
	if s.reg == nil {
		return h
	}
	requests := s.reg.Counter("edge.server.requests." + name)
	errors := s.reg.Counter("edge.server.errors." + name)
	latency := s.reg.Histogram("edge.server.latency_ms."+name, obs.LatencyBucketsMS)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		requests.Inc()
		if rec.status >= 400 {
			errors.Inc()
		}
	})
}

// statusRecorder captures the response status for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// guard wraps a handler with the body cap and handler timeout.
func guard(h http.HandlerFunc) http.Handler {
	limited := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
		h(w, r)
	})
	return http.TimeoutHandler(limited, handlerTimeout, "edge: handler timeout")
}

// decodeRequest decodes a guarded JSON request body, translating the
// MaxBytesReader trip into 413 and everything else into 400.
func decodeRequest(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// geometry returns (building if needed) the full-quality mesh for an object.
// The cache is guarded: concurrent requests for the same object build it at
// most once while the lock is held (geometry generation is fast enough that
// holding the lock across the build is simpler than per-key once values).
func (s *Server) geometry(name string) (*mesh.Mesh, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.meshes[name]; ok {
		return m, nil
	}
	spec, ok := s.specs[name]
	if !ok {
		return nil, fmt.Errorf("edge: unknown object %q", name)
	}
	m, err := spec.Geometry()
	if err != nil {
		return nil, err
	}
	s.meshes[name] = m
	return m, nil
}

// Decimate runs the server's decimation pipeline directly: full-quality
// geometry from the catalog cache, then quadric edge collapse (or vertex
// clustering when fast). It is the computational core behind the /decimate
// route, exported so the session service can serve per-session mesh caches
// from the same catalog without a loopback HTTP hop.
func (s *Server) Decimate(object string, ratio float64, fast bool) (*mesh.Mesh, error) {
	if math.IsNaN(ratio) || ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("edge: ratio %v out of (0,1]", ratio)
	}
	full, err := s.geometry(object)
	if err != nil {
		return nil, err
	}
	if fast {
		target := int(ratio * float64(full.TriangleCount()))
		if target < 1 {
			target = 1
		}
		return mesh.VertexClustering(full, target)
	}
	return mesh.DecimateToRatio(full, ratio)
}

func (s *Server) handleDecimate(w http.ResponseWriter, r *http.Request) {
	var req DecimateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if math.IsNaN(req.Ratio) || req.Ratio <= 0 || req.Ratio > 1 {
		http.Error(w, fmt.Sprintf("ratio %v out of (0,1]", req.Ratio), http.StatusBadRequest)
		return
	}
	if _, err := s.geometry(req.Object); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	dec, err := s.Decimate(req.Object, req.Ratio, req.Fast)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, DecimateResponse{
		Object:    req.Object,
		Ratio:     req.Ratio,
		Triangles: dec.TriangleCount(),
		Mesh:      FromMesh(dec),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more useful to do than log-level
		// reporting, which this package leaves to the caller's middleware.
		return
	}
}
