package debugserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"youtopia/internal/obs"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugHandlerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("serve_test_total").Add(7)
	reg.LatencyHistogram("serve_test_seconds").Observe(int64(time.Millisecond))
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE serve_test_total counter",
		"serve_test_total 7",
		"serve_test_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}

	code, body = get(t, srv, "/debug/pprof/cmdline")
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline = %d (%d bytes)", code, len(body))
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("bind_test_total").Inc()
	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", s.Addr, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "bind_test_total 1") {
		t.Fatalf("scrape = %d %q", resp.StatusCode, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr + "/healthz"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

// TestHealthProbeDegrades pins the /healthz contract of the failure
// model: with a probe reporting unhealthy the endpoint answers 503
// with the state name, healthy probes and a cleared probe answer 200
// "ok".
func TestHealthProbeDegrades(t *testing.T) {
	srv := httptest.NewServer(Handler(obs.NewRegistry()))
	defer srv.Close()
	defer SetHealthProbe(nil)

	SetHealthProbe(func() (string, bool) { return "degraded", false })
	code, body := get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable || strings.TrimSpace(body) != "degraded" {
		t.Fatalf("/healthz under unhealthy probe = %d %q, want 503 %q", code, body, "degraded")
	}

	SetHealthProbe(func() (string, bool) { return "healthy", true })
	if code, body := get(t, srv, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz under healthy probe = %d %q", code, body)
	}

	SetHealthProbe(nil)
	if code, body := get(t, srv, "/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz after probe cleared = %d %q", code, body)
	}
}
