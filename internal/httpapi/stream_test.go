package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"dessched/internal/telemetry"
)

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	data  string
}

func parseSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if cur.data != "" {
				cur.data += "\n"
			}
			cur.data += strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, "retry: "), strings.HasPrefix(line, ":"):
			// Reconnection hints and comment heartbeats carry no payload.
		default:
			t.Fatalf("malformed SSE line %q", line)
		}
	}
	return frames
}

func TestStreamDeliversSamplesAndDone(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stream?servers=2&rate=120&duration_s=5&seed=3&global_budget_w=480")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	frames := parseSSE(t, resp.Body)
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("last frame is %q, want done", last.event)
	}
	var done streamDone
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatalf("bad done payload: %v", err)
	}
	if done.Servers != 2 || done.Arrived == 0 {
		t.Fatalf("bad done summary: %+v", done)
	}

	samples := 0
	seen := map[int]bool{}
	for _, f := range frames[:len(frames)-1] {
		if f.event != "sample" {
			t.Fatalf("unexpected frame %q", f.event)
		}
		var s telemetry.Sample
		if err := json.Unmarshal([]byte(f.data), &s); err != nil {
			t.Fatalf("bad sample payload %q: %v", f.data, err)
		}
		if s.Server < 0 || s.Server > 1 {
			t.Fatalf("sample from server %d", s.Server)
		}
		seen[s.Server] = true
		samples++
	}
	if samples == 0 || !seen[0] || !seen[1] {
		t.Fatalf("samples=%d seen=%v, want both servers represented", samples, seen)
	}
	if done.Samples+int(done.DroppedFrames) < samples {
		t.Fatalf("done accounting inconsistent: %+v vs %d received", done, samples)
	}
}

// TestStreamRetryHintAndHeartbeat: the stream opens with a "retry:"
// reconnection hint and emits comment heartbeats while the engine is
// between samples, and neither disturbs the event frames.
func TestStreamRetryHintAndHeartbeat(t *testing.T) {
	oldHB := streamHeartbeatEvery
	streamHeartbeatEvery = 10 * time.Millisecond
	defer func() { streamHeartbeatEvery = oldHB }()

	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()

	// Throttle the samples so the stream idles long enough to heartbeat.
	resp, err := http.Get(srv.URL + "/v1/stream?rate=60&duration_s=3&throttle_ms=30")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(body, []byte("retry: ")) {
		t.Fatalf("stream does not open with a retry hint:\n%.80s", body)
	}
	if !bytes.Contains(body, []byte(": heartbeat\n\n")) {
		t.Fatal("no heartbeat comment in a throttled stream")
	}
	frames := parseSSE(t, bytes.NewReader(body))
	if len(frames) == 0 || frames[len(frames)-1].event != "done" {
		t.Fatalf("retry/heartbeat lines disturbed the frames: %+v", frames)
	}
}

func TestStreamRejectsBadParams(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	for _, q := range []string{
		"",                    // missing rate
		"rate=0",              // non-positive rate
		"rate=100&servers=99", // over fleet cap
		"rate=100&duration_s=1e9",
		"rate=100&throttle_ms=100000",
		"rate=100&dispatch=nope",
		"rate=10&duration_s=1&cores=257",    // over the core cap
		"rate=10&duration_s=1&cores=-3",     // negative cores
		"rate=10&duration_s=1&budget_w=-80", // negative budget
		"rate=10&duration_s=1&budget_w=NaN", // not a budget
	} {
		resp, err := http.Get(srv.URL + "/v1/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestStreamSheddingUnderSaturation proves the stream sits behind the
// concurrency limiter: with MaxConcurrent=1 and one stream in flight, a
// second request is shed with 429 instead of queueing.
func TestStreamSheddingUnderSaturation(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{MaxConcurrent: 1}))
	defer srv.Close()

	// Throttled stream holds the only slot; wait for its first frame so
	// the slot is provably taken.
	resp, err := http.Get(srv.URL + "/v1/stream?rate=60&duration_s=30&throttle_ms=200")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}

	resp2, err := http.Get(srv.URL + "/v1/stream?rate=60&duration_s=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream got %d, want 429", resp2.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.NewDecoder(resp2.Body).Decode(&env); err != nil {
		t.Fatalf("shed response not the JSON envelope: %v", err)
	}
}

// TestStreamRespectsRequestTimeout proves the stream enforces
// Options.RequestTimeout internally (it cannot use http.TimeoutHandler,
// which would buffer the response).
func TestStreamRespectsRequestTimeout(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{RequestTimeout: 300 * time.Millisecond}))
	defer srv.Close()

	start := time.Now()
	// 30 one-second epochs throttled at 150 ms each ≈ 4.5 s of streaming,
	// far beyond the 300 ms budget.
	resp, err := http.Get(srv.URL + "/v1/stream?rate=60&duration_s=30&throttle_ms=150")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stream ran %v, want cut off near the 300ms timeout", elapsed)
	}
	if !bytes.Contains(body, []byte("stream timed out")) {
		t.Fatalf("missing timeout error frame in:\n%s", body)
	}
}

// slowWriter simulates a stalled client: every write sleeps, so the
// handler's consumer loop falls behind the engine. The first write (the
// retry hint, sent after the engine starts) stalls longer, so the engine
// gets ahead of the consumer however fast the host runs it.
type slowWriter struct {
	*httptest.ResponseRecorder
	stall, delay time.Duration
	wrote        bool
}

func (w *slowWriter) Write(p []byte) (int, error) {
	d := w.delay
	if !w.wrote {
		d, w.wrote = w.stall, true
	}
	time.Sleep(d)
	return w.ResponseRecorder.Write(p)
}

// TestStreamDropsFramesForSlowClient proves the engine-side hook never
// blocks: with a one-slot buffer and a slow client, frames are dropped
// (and counted) while the run completes and the done frame still arrives.
func TestStreamDropsFramesForSlowClient(t *testing.T) {
	old := streamSendBuffer
	streamSendBuffer = 1
	defer func() { streamSendBuffer = old }()

	h := StreamHandler(Options{})
	w := &slowWriter{ResponseRecorder: httptest.NewRecorder(), stall: 500 * time.Millisecond, delay: 3 * time.Millisecond}
	r := httptest.NewRequest("GET", "/v1/stream?rate=240&duration_s=30&seed=5", nil)

	doneCh := make(chan struct{})
	go func() {
		h.ServeHTTP(w, r)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not finish; engine stalled behind slow client?")
	}

	frames := parseSSE(t, w.Body)
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("last frame is %q, want done", last.event)
	}
	var done streamDone
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.DroppedFrames == 0 {
		t.Fatalf("expected dropped frames with buffer=1 and a slow client: %+v", done)
	}
}

func TestDashServesHTML(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !bytes.Contains(body, []byte("EventSource")) || !bytes.Contains(body, []byte("/v1/stream")) {
		t.Fatal("dashboard does not subscribe to the stream")
	}
}

func TestWriteSSEFraming(t *testing.T) {
	var b bytes.Buffer
	if err := WriteSSE(&b, "sam\nple", []byte("line1\nline2\r\nline3")); err != nil {
		t.Fatal(err)
	}
	want := "event: sample\ndata: line1\ndata: line2\ndata: line3\n\n"
	if b.String() != want {
		t.Fatalf("frame = %q, want %q", b.String(), want)
	}
}

func FuzzWriteSSE(f *testing.F) {
	f.Add("sample", []byte(`{"epoch":1}`))
	f.Add("", []byte("plain\ntext"))
	f.Add("done\r\nevil", []byte("a\rb\r\nc"))
	f.Add("x", []byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, event string, data []byte) {
		var b bytes.Buffer
		if err := WriteSSE(&b, event, data); err != nil {
			t.Fatalf("WriteSSE error: %v", err)
		}
		out := b.String()
		if !utf8.ValidString(out) {
			t.Fatalf("frame not valid UTF-8: %q", out)
		}
		if !strings.HasSuffix(out, "\n\n") {
			t.Fatalf("frame not terminated: %q", out)
		}
		body := strings.TrimSuffix(out, "\n\n")
		for i, line := range strings.Split(body, "\n") {
			if i == 0 && strings.HasPrefix(line, "event: ") {
				if strings.ContainsAny(strings.TrimPrefix(line, "event: "), "\r\n") {
					t.Fatalf("event name smuggled a newline: %q", line)
				}
				continue
			}
			if !strings.HasPrefix(line, "data: ") {
				t.Fatalf("malformed frame line %d: %q in %q", i, line, out)
			}
		}
	})
}
