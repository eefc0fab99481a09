package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dessched"
	"dessched/internal/telemetry"
)

func TestLiveTickerFormatsSamples(t *testing.T) {
	var buf bytes.Buffer
	tick := liveTicker(&buf)
	tick(telemetry.Sample{Server: 3, Epoch: 12, Time: 13, Quality: 1.5, EnergyJ: 42, BudgetW: 60, QueueDepth: 7, Availability: 0.75, Shed: 2})
	out := buf.String()
	for _, want := range []string{"server  3", "epoch   12", "budget=  60.0W", "queue=  7", "shed=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("ticker line %q missing %q", out, want)
		}
	}
}

func TestWriteSeriesFileByExtension(t *testing.T) {
	rec := dessched.NewSeriesRecorder(0)
	rec.Record(telemetry.Sample{Server: 0, Epoch: 0, Time: 1, Quality: 2})

	dir := t.TempDir()
	csvPath := filepath.Join(dir, "s.csv")
	if err := writeSeriesFile(csvPath, rec); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(csvPath)
	if !strings.HasPrefix(string(b), "server,epoch,time_s") {
		t.Errorf("CSV header missing: %q", string(b))
	}

	jsonPath := filepath.Join(dir, "s.json")
	if err := writeSeriesFile(jsonPath, rec); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(jsonPath)
	var out struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &out); err != nil || out.Schema != "dessched-series/v1" {
		t.Errorf("series JSON schema = %q, err %v", out.Schema, err)
	}
}

// The cluster path wires every sink at once and its outputs round-trip:
// the cluster-trace bundle parses back, the span trace carries the
// dispatch/epoch/server hierarchy, and outputs are reproducible.
func TestRunClusterSimOutputs(t *testing.T) {
	dir := t.TempDir()
	cfg := dessched.PaperServer()
	cfg.Cores = 4
	cfg.Budget = 80
	wl := dessched.PaperWorkload(60)
	wl.Duration = 5
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}

	traceOut := filepath.Join(dir, "ct.json")
	spansOut := filepath.Join(dir, "spans.json")
	seriesOut := filepath.Join(dir, "series.json")
	fl := simInstrumentFlags{spansOut: spansOut, seriesOut: seriesOut, epoch: 1}
	if err := runClusterSim(2, "des", cfg, dessched.NewSliceJobSource(jobs), wl.Duration, dessched.DispatchRoundRobin, nil, 160, 7, dessched.HedgeConfig{}, "", "", 0, fl,
		traceOut, "", ""); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ct, err := dessched.ReadClusterTraceJSON(f)
	if err != nil {
		t.Fatalf("cluster bundle does not round-trip: %v", err)
	}
	if ct.Servers != 2 || len(ct.PerServer) != 2 || len(ct.Dispatch) == 0 {
		t.Errorf("bundle shape: servers=%d per_server=%d dispatch=%d", ct.Servers, len(ct.PerServer), len(ct.Dispatch))
	}
	if len(ct.Faults) != 2 {
		t.Errorf("chaos faults missing from bundle: %d", len(ct.Faults))
	}

	b, err := os.ReadFile(spansOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cluster"`, `"dispatch"`, `"epoch"`, `"server"`, `"water_level_w"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("span trace missing %s", want)
		}
	}

	if err := runClusterSim(2, "des", cfg, dessched.NewSliceJobSource(jobs), wl.Duration, dessched.DispatchRoundRobin, nil, 160, 7, dessched.HedgeConfig{}, "", "", 0, fl, traceOut, "", ""); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(spansOut)
	if !bytes.Equal(b, b2) {
		t.Error("span trace not reproducible across identical runs")
	}
}
