package edge

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mar-hbo/hbo/internal/render"
)

func newPair(t *testing.T, cacheCap int) (*Server, *Client, func()) {
	t.Helper()
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 2000, Shape: render.ShapeBlob, ShapeSeed: 1, Roughness: 0.3, DistExp: 1},
		{Name: "cabin", MaxTriangles: 1200, Shape: render.ShapeBox, ShapeSeed: 2, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client, err := NewClient(ts.URL, cacheCap)
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return srv, client, ts.Close
}

func TestDecimateRoundTrip(t *testing.T) {
	_, client, closeFn := newPair(t, 8)
	defer closeFn()
	m, err := client.Decimate("apricot", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() < 500 || m.TriangleCount() > 1200 {
		t.Fatalf("decimated count %d not near half of ~2000", m.TriangleCount())
	}
}

func TestDecimateCache(t *testing.T) {
	_, client, closeFn := newPair(t, 8)
	defer closeFn()
	if _, err := client.Decimate("apricot", 0.5); err != nil {
		t.Fatal(err)
	}
	// Same quantized ratio: cache hit, even with a tiny ratio difference.
	if _, err := client.Decimate("apricot", 0.505); err != nil {
		t.Fatal(err)
	}
	hits, misses := client.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestDecimateCacheEviction(t *testing.T) {
	_, client, closeFn := newPair(t, 2)
	defer closeFn()
	ratios := []float64{0.3, 0.5, 0.7} // 3 entries into a 2-entry cache
	for _, r := range ratios {
		if _, err := client.Decimate("cabin", r); err != nil {
			t.Fatal(err)
		}
	}
	// 0.3 was evicted; re-requesting it is a miss.
	if _, err := client.Decimate("cabin", 0.3); err != nil {
		t.Fatal(err)
	}
	hits, misses := client.CacheStats()
	if hits != 0 || misses != 4 {
		t.Fatalf("cache stats = %d/%d, want 0 hits, 4 misses", hits, misses)
	}
	// 0.7 is still resident.
	if _, err := client.Decimate("cabin", 0.7); err != nil {
		t.Fatal(err)
	}
	if h, _ := client.CacheStats(); h != 1 {
		t.Fatalf("expected hit on resident entry, got %d", h)
	}
}

func TestDecimateErrors(t *testing.T) {
	_, client, closeFn := newPair(t, 4)
	defer closeFn()
	if _, err := client.Decimate("ghost", 0.5); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown object error = %v", err)
	}
	if _, err := client.Decimate("apricot", 0); err == nil {
		t.Fatal("zero ratio accepted")
	}
	if _, err := client.Decimate("apricot", 1.5); err == nil {
		t.Fatal("ratio > 1 accepted")
	}
}

func TestMeshPayloadRoundTrip(t *testing.T) {
	spec := render.ObjectSpec{Name: "x", MaxTriangles: 500, Shape: render.ShapeSphere}
	m, err := spec.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	back := FromMesh(m).ToMesh()
	if back.TriangleCount() != m.TriangleCount() || len(back.Vertices) != len(m.Vertices) {
		t.Fatal("payload round trip changed mesh size")
	}
	if back.Vertices[10] != m.Vertices[10] {
		t.Fatal("payload round trip changed vertex data")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("", 4); err == nil {
		t.Fatal("empty base accepted")
	}
	if _, err := NewClient("http://x", 0); err == nil {
		t.Fatal("zero cache accepted")
	}
}

func TestNewServerRejectsDuplicates(t *testing.T) {
	_, err := NewServer([]render.ObjectSpec{
		{Name: "a", MaxTriangles: 100, Shape: render.ShapeSphere},
		{Name: "a", MaxTriangles: 100, Shape: render.ShapeSphere},
	})
	if err == nil {
		t.Fatal("duplicate specs accepted")
	}
}

func TestServerConcurrentDecimation(t *testing.T) {
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 2000, Shape: render.ShapeBlob, ShapeSeed: 1, Roughness: 0.3, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Hammer the same (lazily built) mesh from many goroutines; run with
	// -race to catch cache races.
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			client, err := NewClient(ts.URL, 4)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 5; i++ {
				ratio := 0.2 + 0.15*float64((w+i)%5)
				if _, err := client.Decimate("apricot", ratio); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDecimateFastPath(t *testing.T) {
	_, client, closeFn := newPair(t, 8)
	defer closeFn()
	precise, err := client.Decimate("apricot", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := client.DecimateFast("apricot", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Validate(); err != nil {
		t.Fatal(err)
	}
	if fast.TriangleCount() > precise.TriangleCount()+100 {
		t.Fatalf("fast path returned %d triangles vs target-bound %d", fast.TriangleCount(), precise.TriangleCount())
	}
	// Fast and precise results must not share cache entries.
	hits, misses := client.CacheStats()
	if hits != 0 || misses != 2 {
		t.Fatalf("cache stats %d/%d: fast result aliased the precise one", hits, misses)
	}
	if _, err := client.DecimateFast("apricot", 0.3); err != nil {
		t.Fatal(err)
	}
	if h, _ := client.CacheStats(); h != 1 {
		t.Fatal("repeated fast request should hit the cache")
	}
}

func TestClientServesSceneLOD(t *testing.T) {
	// The edge client satisfies render.LODProvider: a scene can fetch its
	// decimated geometry over the wire, with the local cache absorbing
	// repeated ratios — the full Fig. 3 loop.
	specs := []render.ObjectSpec{
		{Name: "cabin", MaxTriangles: 1200, Shape: render.ShapeBox, ShapeSeed: 2, DistExp: 1},
		{Name: "hammer", MaxTriangles: 1500, Shape: render.ShapeTorus, ShapeSeed: 3, DistExp: 1.2},
	}
	srv, err := NewServer(specs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, 8)
	if err != nil {
		t.Fatal(err)
	}
	var _ render.LODProvider = client

	lib, err := render.NewLibrary(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	scene := render.NewScene(lib)
	for _, sp := range specs {
		if _, err := scene.Place(sp.Name, 1, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range scene.Objects() {
		o.Triangles = o.Spec.MaxTriangles / 2
	}
	if err := scene.ApplyLOD(client, 0.02); err != nil {
		t.Fatal(err)
	}
	for _, o := range scene.Objects() {
		if o.Geometry == nil || o.Geometry.TriangleCount() == 0 {
			t.Fatalf("object %s got no geometry over the wire", o.ID())
		}
	}
	// Re-applying at the same ratios touches only the cache.
	_, missesBefore := client.CacheStats()
	for _, o := range scene.Objects() {
		o.GeometryRatio = 0 // force refetch through the provider
	}
	if err := scene.ApplyLOD(client, 0.02); err != nil {
		t.Fatal(err)
	}
	hits, misses := client.CacheStats()
	if misses != missesBefore {
		t.Fatalf("refetch at same ratios caused server round-trips: %d -> %d misses", missesBefore, misses)
	}
	if hits == 0 {
		t.Fatal("no cache hits on refetch")
	}
}

func TestServerRejectsOversizeBody(t *testing.T) {
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 500, Shape: render.ShapeSphere, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// A body past the request cap must come back 413, not be buffered.
	body := `{"object":"` + strings.Repeat("x", (4<<20)+1024) + `"}`
	resp, err := http.Post(ts.URL+"/decimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestRetiredRoutes404 pins that the stateless /train and /bo/next routes
// are gone: Eq. 1 fits on-device, and remote BO runs through sessiond's
// server-side sessions.
func TestRetiredRoutes404(t *testing.T) {
	srv, err := NewServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/train", "/bo/next"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"resources":3,"rmin":0.1}`))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServerHealthz(t *testing.T) {
	srv, err := NewServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestServerRejectsNaNRatio(t *testing.T) {
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "apricot", MaxTriangles: 500, Shape: render.ShapeSphere, DistExp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// JSON can't carry NaN directly, but a missing ratio decodes to 0 and
	// must be rejected the same way.
	resp, err := http.Post(ts.URL+"/decimate", "application/json", strings.NewReader(`{"object":"apricot"}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
