package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRequireTokenGate pins the middleware contract: no header, a
// malformed header, and a wrong secret are all 401 without reaching the
// service; the right secret passes through.
func TestRequireTokenGate(t *testing.T) {
	o := startOneBatch(t, t.Context(), toyBatch{2}, "", false, ServiceConfig{Units: 1})
	srv := httptest.NewServer(RequireToken("s3cret", o.svc.Handler()))
	t.Cleanup(srv.Close)

	post := func(auth string) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/lease", strings.NewReader(`{"worker":"w"}`))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []string{"", "Bearer wrong", "Basic s3cret", "s3cret"} {
		if code := post(bad); code != http.StatusUnauthorized {
			t.Errorf("auth %q: status %d, want 401", bad, code)
		}
	}
	if code := post("Bearer s3cret"); code != http.StatusOK {
		t.Errorf("valid token: status %d, want 200", code)
	}
}

// TestTokenCoversEveryEndpoint pins that every route sits behind the
// gate — the work protocol, the batch lifecycle, the status probe, and
// the metrics exposition alike: each answers 401 without the secret and
// passes through with it. A fleet whose wire protocol needs a token must
// not leak progress, results, or worker liveness to anonymous clients.
func TestTokenCoversEveryEndpoint(t *testing.T) {
	o := startOneBatch(t, t.Context(), toyBatch{1}, "", false, ServiceConfig{Units: 1})
	srv := httptest.NewServer(RequireToken("s3cret", o.svc.Handler()))
	t.Cleanup(srv.Close)

	submit, err := json.Marshal(map[string]any{"kind": "no-such-kind", "payload": json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	id := o.id
	endpoints := []struct {
		method, path, body string
		want               int // status with the token
	}{
		{http.MethodPost, "/v1/lease", `{"worker":"w"}`, http.StatusOK},
		{http.MethodPost, "/v1/heartbeat", `{"worker":"w","unit":0,"batch":"` + id + `"}`, http.StatusOK},
		{http.MethodPost, "/v1/result?worker=w&unit=0&batch=" + id, "{\"x\":1}\n", http.StatusOK},
		{http.MethodPost, "/v1/fail", `{"worker":"w","unit":0,"batch":"` + id + `","error":"e"}`, http.StatusOK},
		{http.MethodGet, "/v1/status", "", http.StatusOK},
		{http.MethodGet, "/metrics", "", http.StatusOK},
		{http.MethodPost, "/v1/batches", string(submit), http.StatusBadRequest},
		{http.MethodGet, "/v1/batches", "", http.StatusOK},
		{http.MethodGet, "/v1/batches/" + id, "", http.StatusOK},
		{http.MethodGet, "/v1/batches/" + id + "/results", "", http.StatusOK},
		{http.MethodDelete, "/v1/batches/" + id, "", http.StatusOK},
	}
	for _, ep := range endpoints {
		do := func(withToken bool) int {
			req, err := http.NewRequest(ep.method, srv.URL+ep.path, strings.NewReader(ep.body))
			if err != nil {
				t.Fatal(err)
			}
			if withToken {
				req.Header.Set("Authorization", "Bearer s3cret")
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if code := do(false); code != http.StatusUnauthorized {
			t.Errorf("%s %s without token: status %d, want 401", ep.method, ep.path, code)
		}
		if code := do(true); code != ep.want {
			t.Errorf("%s %s with token: status %d, want %d", ep.method, ep.path, code, ep.want)
		}
	}
}

// TestRequireTokenEmptyDisables checks an empty token leaves the handler
// untouched (auth off), matching the -token flag default.
func TestRequireTokenEmptyDisables(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) })
	rec := httptest.NewRecorder()
	RequireToken("", h).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("empty token must disable auth, got status %d", rec.Code)
	}
}

// TestWorkerSendsToken runs a full distributed toy batch through a
// token-gated service: workers carrying the secret complete it, workers
// without it fail their first lease with a 401.
func TestWorkerSendsToken(t *testing.T) {
	ctx := t.Context()
	o := startOneBatch(t, ctx, toyBatch{6}, "", false, ServiceConfig{Units: 3})
	srv := httptest.NewServer(RequireToken("s3cret", o.svc.Handler()))
	t.Cleanup(srv.Close)

	intruder := &Worker{
		Coordinator: srv.URL, ID: "intruder", Exec: toyExec(-1),
		Client: srv.Client(), Poll: 5 * time.Millisecond,
	}
	if err := intruder.Run(ctx); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless worker must fail with 401, got %v", err)
	}

	done := o.drainAsync(t, ctx)
	w := &Worker{
		Coordinator: srv.URL, ID: "w0", Exec: toyExec(-1),
		Client: srv.Client(), Poll: 5 * time.Millisecond, Token: "s3cret",
	}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := (<-done).String(), toyWant(6); got != want {
		t.Errorf("token-gated run:\n got: %q\nwant: %q", got, want)
	}
}
