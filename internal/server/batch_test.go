package server

// Regression pins for the batch error paths PR 10 fixed: mid-flight
// cancellation must never ship an empty item, batch item errors carry
// the full single-compose error shape (byte parity modulo framing),
// traced batch items carry the ingress request ID, and a concurrent
// storm of large batch and small compose bodies never cross-corrupts.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mapcomp/internal/par"
)

// TestBatchCancellationMarksUnrunItems pins satellite 1: a client that
// disconnects mid-batch used to leave every unprocessed item as a bare
// `{}` — neither response nor error. Now each unrun item carries an
// explicit cancellation error and the envelope says Canceled.
func TestBatchCancellationMarksUnrunItems(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)

	s := newTestServer(t)
	started := make(chan struct{})
	s.composeHook = func(ctx context.Context) {
		select {
		case <-started:
		default:
			close(started)
		}
		<-ctx.Done()
	}
	defer func() { s.composeHook = nil }()

	// Eight valid cache-miss pairs: with one worker, item 0 blocks in
	// the hook and items 1..7 are still queued when the context dies.
	var items []string
	for i := 0; i < 8; i++ {
		items = append(items, `{"from":"original","to":"split"}`)
	}
	body := `{"requests":[` + strings.Join(items, ",") + `]}`

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/compose/batch", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, req)
	}()
	<-started
	cancel()
	<-done

	if rec.Code != http.StatusOK {
		t.Fatalf("canceled batch: %d %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Canceled {
		t.Fatal("envelope does not report cancellation")
	}
	if len(resp.Results) != 8 {
		t.Fatalf("got %d results, want 8", len(resp.Results))
	}
	swept := 0
	for i, item := range resp.Results {
		if item.Response == nil && item.Error == nil {
			t.Fatalf("item %d shipped with neither response nor error: %s", i, rec.Body)
		}
		if item.Error != nil && strings.Contains(item.Error.Error, "batch canceled before this item ran") {
			if item.Status != http.StatusGatewayTimeout {
				t.Fatalf("swept item %d has status %d, want 504", i, item.Status)
			}
			if item.Error.RequestID != rec.Header().Get("X-Request-Id") {
				t.Fatalf("swept item %d request_id %q, header %q",
					i, item.Error.RequestID, rec.Header().Get("X-Request-Id"))
			}
			swept++
		}
	}
	if swept == 0 {
		t.Fatalf("no item carries the cancellation sweep error: %s", rec.Body)
	}
}

// TestBatchItemErrorParity pins satellite 2: a failing pair inside a
// batch must produce the exact single-compose error document — same
// fields, same bytes once the per-request ID is equalized — plus the
// item-level status the single request carried as its HTTP status.
func TestBatchItemErrorParity(t *testing.T) {
	s := newTestServer(t)

	single := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"nowhere"}`)
	if single.Code != http.StatusNotFound {
		t.Fatalf("single compose: %d %s", single.Code, single.Body)
	}

	batch := do(t, s, "POST", "/v1/compose/batch", `{"requests":[{"from":"original","to":"nowhere"}]}`)
	if batch.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", batch.Code, batch.Body)
	}
	var env struct {
		Results []struct {
			Status int             `json:"status"`
			Error  json.RawMessage `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(batch.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Results) != 1 || env.Results[0].Error == nil {
		t.Fatalf("batch shape: %s", batch.Body)
	}
	if env.Results[0].Status != single.Code {
		t.Fatalf("batch item status %d, single HTTP status %d", env.Results[0].Status, single.Code)
	}

	// Byte parity modulo framing: decode both, equalize request IDs,
	// re-encode through the canonical encoder, require identical bytes.
	var singleErr, itemErr ErrorJSON
	if err := json.Unmarshal(single.Body.Bytes(), &singleErr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Results[0].Error, &itemErr); err != nil {
		t.Fatal(err)
	}
	if itemErr.RequestID != batch.Header().Get("X-Request-Id") {
		t.Fatalf("batch item request_id %q, header %q", itemErr.RequestID, batch.Header().Get("X-Request-Id"))
	}
	singleErr.RequestID, itemErr.RequestID = "", ""
	if !reflect.DeepEqual(singleErr, itemErr) {
		t.Fatalf("batch item error diverges from single compose error:\nitem   %#v\nsingle %#v", itemErr, singleErr)
	}
	a, err := marshalWire(&singleErr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshalWire(&itemErr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-encoded error bytes diverge:\nitem   %s\nsingle %s", b, a)
	}
}

// TestBatchDecodeContract pins what a client observes of the batch
// envelope decode: encoding/json semantics, one decode per body.
func TestBatchDecodeContract(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"requests":null}`, http.StatusBadRequest},
		{`{"requests":[]}`, http.StatusBadRequest},
		{`{"requests":[{"FROM":"original","To":"split"}]}`, http.StatusOK},
		{`{"requests":[{"from":"original","to":"split"}]} trailing`, http.StatusBadRequest},
	} {
		rec := do(t, s, "POST", "/v1/compose/batch", tc.body)
		if rec.Code != tc.code {
			t.Errorf("batch %s: status %d, want %d (%s)", tc.body, rec.Code, tc.code, rec.Body)
			continue
		}
		if tc.code != http.StatusOK {
			if e := decode[ErrorJSON](t, rec); e.Error == "" {
				t.Errorf("batch %s: missing error body", tc.body)
			}
			continue
		}
		resp := decode[BatchResponse](t, rec)
		if len(resp.Results) != 1 || resp.Results[0].Response == nil || resp.Results[0].Response.From != "original" {
			t.Errorf("batch %s: results %s", tc.body, rec.Body)
		}
	}
}

// TestBatchTraceCarriesRequestID pins satellite 3: traced batch items
// used to stamp their trace with an empty request ID. The trace must
// carry the same X-Request-Id the response headers advertise.
func TestBatchTraceCarriesRequestID(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "POST", "/v1/compose/batch",
		`{"requests":[{"from":"original","to":"split","trace":true}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Response == nil || resp.Results[0].Response.Trace == nil {
		t.Fatalf("traced batch shape: %s", rec.Body)
	}
	id := rec.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id header")
	}
	if got := resp.Results[0].Response.Trace.RequestID; got != id {
		t.Fatalf("trace request_id %q, header %q", got, id)
	}
}

// TestOversizedBodyStorm interleaves oversized batch bodies (>64 KiB)
// with tiny compose hits from concurrent goroutines. Every request reads
// its own body, so under -race this must produce only correct responses:
// no cross-request corruption between concurrent readers, decoders and
// cache probes.
func TestOversizedBodyStorm(t *testing.T) {
	s := newTestServer(t)
	// Prime the cache so the tiny composes are served by the probe.
	if rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`); rec.Code != http.StatusOK {
		t.Fatalf("prime: %d %s", rec.Code, rec.Body)
	}

	// One batch body past 64 KiB: 512 items, each padded with an
	// unknown field so the body tops 100 KiB.
	pad := strings.Repeat("x", 200)
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < 512; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"from":"original","to":"split","pad%d":"%s"}`, i, pad)
	}
	sb.WriteString(`]}`)
	bigBody := sb.String()
	if len(bigBody) <= 64<<10 {
		t.Fatalf("test body is %d bytes, need > %d", len(bigBody), 64<<10)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rec := do(t, s, "POST", "/v1/compose/batch", bigBody)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("batch: %d %s", rec.Code, rec.Body.Bytes()[:200])
					return
				}
				var resp BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- err
					return
				}
				if len(resp.Results) != 512 {
					errs <- fmt.Errorf("batch returned %d results", len(resp.Results))
					return
				}
				for _, item := range resp.Results {
					if item.Response == nil || item.Response.From != "original" || item.Response.To != "split" {
						errs <- fmt.Errorf("corrupted batch item: %+v", item)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("compose: %d %s", rec.Code, rec.Body)
					return
				}
				var resp ComposeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- err
					return
				}
				if resp.From != "original" || resp.To != "split" {
					errs <- fmt.Errorf("corrupted compose response: %+v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
