package sessiond_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/mar-hbo/hbo/internal/edge/sessiond"
)

// sessionRoutes are the JSON routes FuzzSessionJSON drives, indexed by the
// fuzzer's route byte.
var sessionRoutes = []string{
	"/session/open",
	"/session/suggest",
	"/session/observe",
	"/session/close",
	"/session/decimate",
}

// FuzzSessionJSON throws arbitrary bodies at the five JSON session routes.
// The JSON codec is the only parser of outside input in front of the op
// layer, so whatever the body holds — truncated JSON, wrong types,
// non-finite numbers, an absent, negative, huge or gapped observe index —
// the service must not panic, must answer a plausible status, and must
// answer every 200 with a well-formed JSON document. Each input gets a
// fresh one-shard service holding one live session "s", so no input
// inherits another's GP history.
func FuzzSessionJSON(f *testing.F) {
	const point = `"point":[0.2,0.3,0.5,0.5],"cost":0.1`
	seeds := []struct {
		route byte
		body  string
	}{
		{0, `{"id":"a","resources":3,"rmin":0.1,"seed":1}`},
		{0, `{"id":"s","resources":3,"rmin":0.1,"seed":1,"policy":"gp-ei"}`},
		{0, `{"id":"","resources":3,"rmin":0.1}`},
		{0, `{"id":"a","resources":0,"rmin":0.1}`},
		{0, `{"id":"a","resources":3,"rmin":0.1,"policy":"nope"}`},
		{1, `{"id":"s"}`},
		{1, `{"id":"ghost"}`},
		{2, `{"id":"s",` + point + `}`},
		{2, `{"id":"s",` + point + `,"index":0}`},
		{2, `{"id":"s",` + point + `,"index":-1}`},
		{2, `{"id":"s",` + point + `,"index":99999999999999999999}`},
		{2, `{"id":"s",` + point + `,"index":4294967295}`},
		{2, `{"id":"s",` + point + `,"index":7}`},
		{2, `{"id":"s","point":[1,1,1],"cost":1e999}`},
		{3, `{"id":"s"}`},
		{4, `{"id":"s","object":"cube","ratio":0.5}`},
		{4, `{"id":"s","object":"cube","ratio":2}`},
		{0, `{`},
		{1, `null`},
		{2, `[]`},
		{3, ``},
	}
	for _, s := range seeds {
		f.Add(s.route, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		cfg := sessiond.DefaultConfig()
		cfg.Shards = 1
		svc, err := sessiond.New(cfg, &stubDecimator{})
		if err != nil {
			t.Fatalf("service: %v", err)
		}
		defer svc.Close()
		h := svc.Handler()
		open := httptest.NewRequest(http.MethodPost, "/session/open",
			bytes.NewReader([]byte(`{"id":"s","resources":3,"rmin":0.1,"seed":1}`)))
		if rec := serve(h, open); rec.Code != http.StatusOK {
			t.Fatalf("opening the fixture session: %d %s", rec.Code, rec.Body)
		}

		path := sessionRoutes[int(route)%len(sessionRoutes)]
		rec := serve(h, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("%s returned impossible status %d", path, rec.Code)
		}
		if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s answered 200 with malformed JSON %q", path, rec.Body)
		}
	})
}

func serve(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	req = req.WithContext(context.Background())
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
