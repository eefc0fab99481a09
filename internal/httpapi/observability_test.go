package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"dessched/internal/runlog"
	"dessched/internal/telemetry/ledger"
)

// TestStreamedClusterOverSSE: every /v1/stream run drives the lazy fleet
// pipeline (workload.NewStream → cluster.RunStream) end to end over SSE;
// stream=true is a documented no-op whose done summary is bit-identical to
// the plain request's.
func TestStreamedClusterOverSSE(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()

	run := func(extra string) streamDone {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/stream?servers=2&rate=120&duration_s=5&seed=3&global_budget_w=480" + extra)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		frames := parseSSE(t, resp.Body)
		if len(frames) == 0 {
			t.Fatal("no frames")
		}
		last := frames[len(frames)-1]
		if last.event != "done" {
			t.Fatalf("last frame %q, want done", last.event)
		}
		var done streamDone
		if err := json.Unmarshal([]byte(last.data), &done); err != nil {
			t.Fatal(err)
		}
		return done
	}

	batch := run("")
	streamed := run("&stream=true")
	if streamed.Arrived == 0 || streamed.Servers != 2 {
		t.Fatalf("streamed run empty: %+v", streamed)
	}
	if streamed.NormQuality != batch.NormQuality || streamed.EnergyJ != batch.EnergyJ ||
		streamed.Completed != batch.Completed || streamed.Shed != batch.Shed {
		t.Errorf("streamed SSE run diverged from batch:\nbatch    %+v\nstreamed %+v", batch, streamed)
	}

	// A malformed stream flag is still a 400.
	resp, err := http.Get(srv.URL + "/v1/stream?servers=2&rate=120&duration_s=5&stream=maybe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stream=maybe: status %d, want 400", resp.StatusCode)
	}
}

// TestRequestIDsAndLedger: with Log and LedgerPath armed, every request
// gets a process-unique X-Request-ID, the structured log carries it, and
// a /v1/* run appends a dessched-run/v1 manifest whose note names the
// request id — the join key between server log and ledger.
func TestRequestIDsAndLedger(t *testing.T) {
	var logBuf bytes.Buffer
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	srv := httptest.NewServer(NewHandler(Options{
		LedgerPath: path,
		Log:        runlog.New(&logBuf),
	}))
	defer srv.Close()

	body, _ := json.Marshal(SimRequest{Policy: "des", Cores: 4, Budget: 80, Rate: 30, Duration: 5, Seed: 11})
	resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(id, "r") || len(id) != 7 {
		t.Fatalf("X-Request-ID = %q, want r<6 digits>", id)
	}

	logLine := logBuf.String()
	for _, want := range []string{"msg=request", "id=" + id, "path=/v1/simulate", "status=200"} {
		if !strings.Contains(logLine, want) {
			t.Errorf("request log missing %q:\n%s", want, logLine)
		}
	}

	entries, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ledger entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Cmd != "http:/v1/simulate" {
		t.Errorf("cmd = %q", e.Cmd)
	}
	// The policy is the registry's canonical name, as on the CLI.
	if e.Fingerprint == "" || e.Seed != 11 || e.Policy != "des" || e.NormQuality <= 0 {
		t.Errorf("entry missing provenance: %+v", e)
	}
	if !strings.Contains(e.Note, "request "+id) {
		t.Errorf("note %q does not name request %s", e.Note, id)
	}

	// The SSE path records too, with the request id in the note, stamped
	// like every fleet run: fingerprint, policy and shape included.
	sresp, err := http.Get(srv.URL + "/v1/stream?servers=2&rate=60&duration_s=3&stream=true")
	if err != nil {
		t.Fatal(err)
	}
	parseSSE(t, sresp.Body)
	sresp.Body.Close()
	entries, err = ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("ledger entries = %d after stream, want 2", len(entries))
	}
	se := entries[1]
	if se.Cmd != "http:/v1/stream" || !strings.Contains(se.Note, "request ") || se.Servers != 2 ||
		se.Fingerprint == "" || se.Policy != "des" || se.Cores != 16 || se.BudgetW != 640 {
		t.Errorf("stream entry wrong: %+v", se)
	}
}
