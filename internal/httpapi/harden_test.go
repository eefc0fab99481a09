package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dessched/internal/workload"
)

// hardened serves the real routing table behind the full middleware stack,
// exactly as desserver does.
func hardened(t *testing.T, o Options) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(o))
	t.Cleanup(srv.Close)
	return srv
}

// TestPanicRecovery: a panicking handler yields 500 and the server keeps
// serving subsequent requests.
func TestPanicRecovery(t *testing.T) {
	log.SetOutput(io.Discard) // the recovered stack trace is expected noise
	defer log.SetOutput(os.Stderr)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	})
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(Harden(mux, Options{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/ok")
	if err != nil {
		t.Fatalf("server did not survive the panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200", resp.StatusCode)
	}
}

// TestConcurrencyLimitSheds: requests beyond MaxConcurrent get 429 with a
// Retry-After header instead of queueing.
func TestConcurrencyLimitSheds(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default: // post-release requests have no listener; don't block
		}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(Harden(slow, Options{MaxConcurrent: 1}))
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Errorf("occupying request: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupying request status = %d", resp.StatusCode)
		}
	}()
	<-entered // the single slot is now held

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	close(release)
	wg.Wait()

	// With the slot free again the server accepts requests.
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed status = %d, want 200", resp.StatusCode)
	}
}

// TestOversizedBody: bodies beyond MaxBodyBytes get 413.
func TestOversizedBody(t *testing.T) {
	srv := hardened(t, Options{MaxBodyBytes: 256})
	big := fmt.Sprintf(`{"policy":%q,"rate":10}`, strings.Repeat("x", 1024))
	resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestSimulateHonoursCancellation: /v1/simulate passes the request context
// into the engine, so a client that leaves (or the server's request
// timeout) stops the run. Uncancelled, this request runs about 0.6 s on a
// 2-vCPU box.
func TestSimulateHonoursCancellation(t *testing.T) {
	req := SimRequest{Policy: "des", Rate: 2000, Duration: 6}
	// The job slice is built before the engine starts and is not
	// cancellable, so the bound starts once it is built.
	wl := workload.DefaultConfig(req.Rate)
	wl.Duration = req.Duration
	start := time.Now()
	if _, err := workload.Generate(wl); err != nil {
		t.Fatal(err)
	}
	generate := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	_, _, err := runSimulation(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > generate+100*time.Millisecond {
		t.Errorf("cancelled request returned after %v (workload generation %v), want within 100ms of it", took, generate)
	}
}

// TestMalformedJSON: truncated or non-JSON bodies get 400 on both POST
// endpoints.
func TestMalformedJSON(t *testing.T) {
	srv := hardened(t, Options{})
	for _, path := range []string{"/v1/simulate", "/v1/experiments/fig5"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"policy":`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestUnsupportedMethod: the method-qualified routes reject mismatched verbs
// with 405.
func TestUnsupportedMethod(t *testing.T) {
	srv := hardened(t, Options{})
	for _, c := range []struct{ method, path string }{
		{http.MethodDelete, "/healthz"},
		{http.MethodGet, "/v1/simulate"},
		{http.MethodPut, "/v1/experiments"},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
}

// simulate posts a SimRequest and decodes the response.
func simulate(t *testing.T, url string, req SimRequest) SimResponse {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out SimResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSimulateFaultedReturnsResilience: any injected fault makes the
// response carry a resilience report against the fault-free twin.
func TestSimulateFaultedReturnsResilience(t *testing.T) {
	srv := server(t)
	res := simulate(t, srv.URL, SimRequest{
		Policy: "des", Cores: 4, Budget: 80, Rate: 30, Duration: 5,
		BudgetFaults: []BudgetFaultJSON{{Start: 1, End: 3, Fraction: 0.4}},
	})
	if res.Resilience == nil {
		t.Fatal("faulted run returned no resilience report")
	}
	if res.Resilience.QualityRetained <= 0 || res.Resilience.QualityRetained > 1.001 {
		t.Errorf("implausible quality retention: %+v", res.Resilience)
	}

	// Fault-free runs stay lean: no report.
	clean := simulate(t, srv.URL, SimRequest{Policy: "des", Cores: 4, Budget: 80, Rate: 30, Duration: 5})
	if clean.Resilience != nil {
		t.Errorf("fault-free run carried a resilience report: %+v", clean.Resilience)
	}
}

// TestSimulateChaosDeterministic: the same chaos seed reproduces an
// identical resilience report through the API.
func TestSimulateChaosDeterministic(t *testing.T) {
	srv := server(t)
	seed := uint64(11)
	req := SimRequest{Policy: "des", Cores: 4, Budget: 80, Rate: 30, Duration: 5, ChaosSeed: &seed}
	a := simulate(t, srv.URL, req)
	b := simulate(t, srv.URL, req)
	if a.Resilience == nil || b.Resilience == nil {
		t.Fatal("chaos run returned no resilience report")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same chaos seed, different responses:\n%+v\n%+v", a, b)
	}
}

// TestSimulateAdmissionSheds: an overloaded run with quality-aware
// admission sheds jobs and reports the fraction.
func TestSimulateAdmissionSheds(t *testing.T) {
	srv := server(t)
	zero := 0.0
	res := simulate(t, srv.URL, SimRequest{
		Policy: "des", Cores: 1, Budget: 20, Rate: 8, Duration: 10, Partial: &zero,
		Bursts:    []BurstJSON{{Start: 2, End: 8, Multiplier: 3}},
		Admission: &AdmissionJSON{Policy: "quality-aware", MaxQueue: 2},
	})
	if res.Shed == 0 {
		t.Errorf("expected shedding under burst with max_queue=2: %+v", res)
	}
	if res.Resilience == nil || res.Resilience.ShedFraction <= 0 {
		t.Errorf("resilience report missing shed fraction: %+v", res.Resilience)
	}
}

// TestServeDrainsOnSIGTERM: SIGTERM stops the listener but lets in-flight
// requests finish before Serve returns nil (satellite: a clean shutdown is
// not an error).
func TestServeDrainsOnSIGTERM(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		time.Sleep(300 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "drained")
	})
	srv := &http.Server{Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, srv, ln, 5*time.Second) }()

	type reply struct {
		status int
		body   string
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- reply{status: resp.StatusCode, body: string(b)}
	}()

	<-entered // request is in flight; now deliver the termination signal
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", r.err)
	}
	if r.status != http.StatusOK || r.body != "drained" {
		t.Fatalf("in-flight request got %d %q, want 200 \"drained\"", r.status, r.body)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("clean shutdown surfaced an error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
}
