package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"rhhh"
	"rhhh/internal/resilience"
	"rhhh/internal/telemetry"
)

// testServer builds an instrumented two-worker daemon fed with enough
// deterministic traffic to produce heavy hitters.
func testServer(t *testing.T) (*server, *rhhh.Sharded) {
	t.Helper()
	mon, err := rhhh.NewSharded(rhhh.Config{
		Dims: 1, Epsilon: 0.01, Delta: 0.01, Seed: 7,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(mon, 0.05, serverOptions{})
	heavy := netip.MustParseAddr("10.1.2.3")
	srcs := make([]netip.Addr, 0, 4096)
	for i := range 4096 {
		if i%2 == 0 {
			srcs = append(srcs, heavy)
		} else {
			srcs = append(srcs, netip.AddrFrom4([4]byte{192, 168, byte(i >> 8), byte(i)}))
		}
	}
	for w := range 2 {
		mon.Worker(w).UpdateBatch(srcs, nil)
		mon.Worker(w).Sync()
	}
	t.Cleanup(func() { _ = mon.Close() })
	return srv, mon
}

// TestMetricsCatalogue is the golden test: the live exposition must contain
// exactly the documented families with the documented types and help, every
// histogram well-formed, and the load-bearing series nonzero.
func TestMetricsCatalogue(t *testing.T) {
	srv, _ := testServer(t)
	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	fams, err := telemetry.ParseProm(rec.Body.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, want := range metricCatalogue {
		f, ok := fams[want.Name]
		if !ok {
			t.Errorf("catalogue family %s missing from /metrics", want.Name)
			continue
		}
		if f.Type != want.Type {
			t.Errorf("%s: type %s, catalogue says %s", want.Name, f.Type, want.Type)
		}
		if f.Help != want.Help {
			t.Errorf("%s: help %q, catalogue says %q", want.Name, f.Help, want.Help)
		}
		if len(f.Samples) == 0 {
			t.Errorf("%s: no samples", want.Name)
		}
	}
	for name := range fams {
		found := false
		for _, want := range metricCatalogue {
			if want.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family %s exposed but not in the catalogue", name)
		}
	}
	// The traffic above must be visible in the load-bearing series.
	for _, name := range []string{
		"rhhh_engine_packets_total", "rhhh_engine_samples_total",
		"rhhh_counter_occupied", "rhhh_worker_publications_total",
	} {
		var sum float64
		for _, s := range fams[name].Samples {
			sum += s.Value
		}
		if sum <= 0 {
			t.Errorf("%s: total %v, want > 0 after traffic", name, sum)
		}
	}
	// Per-worker labeling: both workers must expose their own series.
	for _, labels := range []string{`worker="0"`, `worker="1"`} {
		if _, ok := telemetry.Lookup(fams, "rhhh_engine_packets_total", "rhhh_engine_packets_total", labels); !ok {
			t.Errorf("rhhh_engine_packets_total%s missing", labels)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv, mon := testServer(t)
	rec := httptest.NewRecorder()
	srv.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	var hr healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatalf("healthz is not JSON: %v (%q)", err, rec.Body.String())
	}
	if hr.State != "ok" || hr.N != mon.N() || hr.Workers != 2 || hr.DegradeLevel != 0 {
		t.Fatalf("unexpected healthz: %+v", hr)
	}

	// The state machine drives the status code: failing and draining are
	// 503 so a load balancer stops routing, and draining is sticky.
	srv.health.Set(resilience.HealthFailing, "test")
	rec = httptest.NewRecorder()
	srv.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("failing healthz code = %d, want 503", rec.Code)
	}
	srv.beginDrain()
	srv.health.Set(resilience.HealthOK, "nope")
	rec = httptest.NewRecorder()
	srv.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 503 || hr.State != "draining" {
		t.Fatalf("draining healthz = %d %+v, want sticky 503 draining", rec.Code, hr)
	}
}

func TestQuery(t *testing.T) {
	srv, mon := testServer(t)
	rec := httptest.NewRecorder()
	srv.handleQuery(rec, httptest.NewRequest("GET", "/query?theta=0.2", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Theta != 0.2 || resp.N != mon.N() || resp.Count != len(resp.Hits) {
		t.Fatalf("inconsistent response: %+v", resp)
	}
	if len(resp.Hits) == 0 {
		t.Fatal("no hits at theta=0.2 over a half-heavy stream")
	}
	found := false
	for _, h := range resp.Hits {
		if h.Src == "10.1.2.3/32" {
			found = true
			if h.Upper < h.Lower || h.Level != 0 {
				t.Fatalf("malformed hit: %+v", h)
			}
		}
	}
	if !found {
		t.Fatalf("10.1.2.3/32 not reported: %+v", resp.Hits)
	}

	rec = httptest.NewRecorder()
	srv.handleQuery(rec, httptest.NewRequest("GET", "/query?theta=2", nil))
	if rec.Code != 400 {
		t.Fatalf("theta=2 not rejected: %d", rec.Code)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	srv, mon := testServer(t)
	rec := httptest.NewRecorder()
	srv.handleSnapshot(rec, httptest.NewRequest("GET", "/snapshot", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var snap rhhh.Snapshot
	if err := snap.UnmarshalBinary(rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	if snap.N() != mon.N() {
		t.Fatalf("snapshot N=%d, monitor N=%d", snap.N(), mon.N())
	}
	if len(snap.HeavyHitters(0.2)) == 0 {
		t.Fatal("restored snapshot reports no heavy hitters")
	}
}

func TestWatchSSE(t *testing.T) {
	srv, mon := testServer(t)
	ts := httptest.NewServer(newMux(srv))
	t.Cleanup(ts.Close)

	// A negative or NaN min_delta is refused before any stream starts; NaN
	// would switch Updated events off, since no change compares >= NaN.
	for _, md := range []string{"-1", "NaN"} {
		resp, err := ts.Client().Get(ts.URL + "/watch?min_delta=" + md)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("min_delta=%s answered %d, want 400", md, resp.StatusCode)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/watch?theta=0.2&interval=10ms")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// The first tick reports the standing set as admitted deltas.
	type lineRes struct {
		line string
		err  error
	}
	lines := make(chan lineRes, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- lineRes{line: sc.Text()}
		}
		lines <- lineRes{err: io.EOF}
	}()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatalf("stream ended without a delta: %v", l.err)
			}
			if !strings.HasPrefix(l.line, "data: ") {
				continue
			}
			var ev watchEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(l.line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event %q: %v", l.line, err)
			}
			if ev.N != mon.N() || len(ev.Admitted) == 0 {
				t.Fatalf("unexpected first delta: %+v", ev)
			}
			return
		case <-deadline:
			t.Fatal("no SSE delta within 10s")
		}
	}
}

// TestWatchInstrumented asserts the watch-layer series move once a
// subscription has ticked.
func TestWatchInstrumented(t *testing.T) {
	srv, mon := testServer(t)
	sub, err := mon.Watch(rhhh.WatchOptions{Theta: 0.2, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	select {
	case <-sub.Events():
	case <-time.After(10 * time.Second):
		t.Fatal("no delta within 10s")
	}
	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	fams, err := telemetry.ParseProm(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rhhh_watch_ticks_total", "rhhh_watch_deliveries_total"} {
		s, ok := telemetry.Lookup(fams, name, name, "")
		if !ok || s.Value <= 0 {
			t.Errorf("%s not advancing: %+v ok=%v", name, s, ok)
		}
	}
	s, ok := telemetry.Lookup(fams, "rhhh_watch_tick_seconds", "rhhh_watch_tick_seconds_count", "")
	if !ok || s.Value <= 0 {
		t.Errorf("tick latency histogram empty: %+v ok=%v", s, ok)
	}
}

// TestHeaderTimeoutClosesSlowClient: hhhd's listener closes a connection
// that sends only part of a request header once the header timeout passes,
// instead of holding it and its goroutine open.
func TestHeaderTimeoutClosesSlowClient(t *testing.T) {
	t.Parallel()
	srv, _ := testServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(ln.Addr().String(), newMux(srv))
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: hhhd\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with a partial header still open after the header timeout: %v", err)
	}
}
