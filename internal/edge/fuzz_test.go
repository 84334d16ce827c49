package edge

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/mar-hbo/hbo/internal/render"
)

// fuzzHandler builds the server routes once for the whole fuzz run; the
// catalog is tiny so accidental valid decimate requests stay cheap.
var fuzzHandler = sync.OnceValue(func() http.Handler {
	srv, err := NewServer([]render.ObjectSpec{
		{Name: "fuzzy", MaxTriangles: 500, Shape: render.ShapeBlob, ShapeSeed: 7, Roughness: 0.3, DistExp: 1},
	})
	if err != nil {
		panic(err)
	}
	return srv.Handler()
})

// FuzzEdgeRequestDecode throws arbitrary bodies at the /decimate route's
// request decoding and validation. The server must never panic and must
// always answer with a plausible HTTP status, whatever the body contains —
// truncated JSON, out-of-range numbers, wrong types, or a valid request for
// an unknown object. The leading byte once chose among several routes;
// /decimate is the only one left, and the byte stays so the checked-in
// corpus under testdata/fuzz still loads.
func FuzzEdgeRequestDecode(f *testing.F) {
	seeds := []string{
		`{"object":"fuzzy","ratio":0.5}`,
		`{"object":"fuzzy","ratio":0.1,"fast":true}`,
		`{"object":"missing","ratio":0.5}`,
		`{"object":"fuzzy","ratio":1e999}`,
		`{"object":"fuzzy","ratio":-1}`,
		`{"object":"fuzzy","ratio":0}`,
		`{"object":"fuzzy"}`,
		`{"object":"","ratio":0.5}`,
		`{"object":"fuzzy","ratio":"0.5"}`,
		`{"object":"fuzzy","ratio":0.5,"fast":"yes"}`,
		`{"object":["fuzzy"],"ratio":0.5}`,
		`{`,
		`null`,
		`[]`,
		``,
	}
	for _, body := range seeds {
		f.Add(byte(0), []byte(body))
	}
	f.Fuzz(func(t *testing.T, _ byte, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/decimate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		fuzzHandler().ServeHTTP(rec, req)
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("/decimate returned impossible status %d", rec.Code)
		}
	})
}
