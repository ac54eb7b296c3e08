package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzComposeRequest throws arbitrary bodies at POST /v1/compose on a
// live server (registered chain, tight server-wide compose deadline so
// valid pairs exercise the full path cheaply). The handler must never
// panic, must answer every body with a JSON document, and must only use
// the statuses the API documents. Writing the overflow seeds for this
// corpus surfaced a real timeout_ms bug: a value near MaxInt64
// multiplied into a negative duration and disabled the server-wide
// deadline cap entirely (fixed in composeContext, pinned by
// TestTimeoutMSOverflowCannotEscapeServerCap below).
//
// The committed seed corpus lives in testdata/fuzz/FuzzComposeRequest;
// run `go test -fuzz=FuzzComposeRequest ./internal/server/` to explore.
func FuzzComposeRequest(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte(`{"from":"original","to":"split"}`),
		[]byte(`{"from":"original","to":"split","timeout_ms":5}`),
		[]byte(`{"from":"original","to":"split","timeout_ms":9223372036854775807}`),
		[]byte(`{"from":"original","to":"split","timeout_ms":-1}`),
		[]byte(`{"from":"nowhere","to":"original"}`),
		[]byte(`{"from":"original","to":"original"}`),
		[]byte(`{"from":"original"}`),
		[]byte(`{}`),
		[]byte(`not json at all`),
		[]byte(`null`),
		[]byte(`[1,2,3]`),
		[]byte(`{"from":{"a":1},"to":["x"]}`),
		[]byte(`{"from":"original","from":"split","to":"split"}`),
		[]byte(`{"from":"a.b c","to":"../../etc"}`),
		[]byte(`{"from":"original","to":"split","timeout_ms":1e309}`),
		[]byte(`{"from":"original","to":"split"} trailing`),
	} {
		f.Add(seed)
	}

	s := New(Config{ComposeTimeout: 5 * time.Second})
	reg := httptest.NewRequest("POST", "/v1/register", bytes.NewReader([]byte(chainTask)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, reg)
	if rec.Code != http.StatusOK {
		f.Fatalf("register: %d %s", rec.Code, rec.Body)
	}

	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusNotFound:              true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusGatewayTimeout:        true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/compose", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if !allowed[rec.Code] {
			t.Fatalf("body %q: undocumented status %d: %s", body, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("body %q: non-JSON response %q", body, rec.Body)
		}
	})
}

// TestTimeoutMSOverflowCannotEscapeServerCap pins the composeContext
// overflow fix deterministically: a request whose timeout_ms multiplies
// past MaxInt64 nanoseconds must still run under the server-wide
// deadline (504 here, because the hook outlasts the 1ms cap), not
// under no deadline at all.
func TestTimeoutMSOverflowCannotEscapeServerCap(t *testing.T) {
	cat := newTestServer(t).Catalog()
	s := New(Config{Catalog: cat, ComposeTimeout: time.Millisecond})
	s.composeHook = awaitDeadline
	rec := do(t, s, "POST", "/v1/compose",
		`{"from":"original","to":"split","timeout_ms":9223372036855}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 under the server cap despite the overflowing timeout_ms: %s",
			rec.Code, rec.Body)
	}
}
