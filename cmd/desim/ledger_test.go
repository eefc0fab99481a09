package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"dessched"
	"dessched/internal/httpapi"
)

// TestOneStampOnEverySurface: the same run recorded by `desim sim` and
// over HTTP carries the same ledger stamp — fingerprint, canonical policy,
// shape and outcome — so a ledger diff between them names only the
// command. One server against /v1/simulate; a fleet of two against
// /v1/cluster/simulate and /v1/stream.
func TestOneStampOnEverySurface(t *testing.T) {
	dir := t.TempDir()
	cliPath, httpPath := filepath.Join(dir, "cli.jsonl"), filepath.Join(dir, "http.jsonl")
	flags := []string{"-cores", "4", "-budget", "80", "-rate", "30", "-duration", "5", "-seed", "11",
		"-chaos-seed", "3", "-ledger", cliPath}
	for _, more := range [][]string{nil, {"-servers", "2"}} {
		if err := cmdSim(append(append([]string(nil), flags...), more...)); err != nil {
			t.Fatalf("desim sim %v: %v", more, err)
		}
	}

	srv := httptest.NewServer(httpapi.NewHandler(httpapi.Options{LedgerPath: httpPath}))
	defer srv.Close()
	check := func(resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", resp.Request.URL.Path, resp.StatusCode)
		}
	}
	post := func(route string, body any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		check(http.Post(srv.URL+route, "application/json", bytes.NewReader(b)))
	}
	chaos := uint64(3)
	post("/v1/simulate", httpapi.SimRequest{Policy: "des", Cores: 4, Budget: 80, Rate: 30, Duration: 5, Seed: 11, ChaosSeed: &chaos})
	post("/v1/cluster/simulate", httpapi.ClusterSimRequest{Servers: 2, Policy: "des-c", Cores: 4, Budget: 80, Rate: 30, Duration: 5, Seed: 11, ChaosSeed: &chaos})
	check(http.Get(srv.URL + "/v1/stream?servers=2&cores=4&budget_w=80&rate=30&duration_s=5&seed=11&chaos_seed=3"))

	cli, err := dessched.ReadLedger(cliPath)
	if err != nil || len(cli) != 2 {
		t.Fatalf("CLI ledger: %d entries, %v", len(cli), err)
	}
	web, err := dessched.ReadLedger(httpPath)
	if err != nil || len(web) != 3 {
		t.Fatalf("HTTP ledger: %d entries, %v", len(web), err)
	}
	for i, c := range []dessched.LedgerEntry{cli[0], cli[1], cli[1]} {
		w := web[i]
		if c.Fingerprint == "" || c.Policy != "des" {
			t.Errorf("%s: stamp fingerprint %q policy %q", c.Cmd, c.Fingerprint, c.Policy)
		}
		d := dessched.DiffLedger(c, w)
		if want := "cmd: sim → " + w.Cmd; len(d) != 1 || d[0] != want {
			t.Errorf("desim sim vs %s: diff %q, want only %q", w.Cmd, d, want)
		}
	}
}

// TestChaosLedgerStampsFaultedRun: `desim chaos -ledger` fingerprints the
// faulted run's own config — admission, retry and the fault plan included
// — so soaks that differ only in -retry-max record different fingerprints,
// and neither matches a fault-free `desim sim` of the same server.
func TestChaosLedgerStampsFaultedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	base := []string{"-cores", "4", "-budget", "80", "-rate", "60", "-duration", "4", "-seed", "2", "-ledger", path}
	for _, more := range [][]string{nil, {"-retry-max", "3"}} {
		if err := cmdChaos(append(append([]string(nil), base...), more...)); err != nil {
			t.Fatalf("desim chaos %v: %v", more, err)
		}
	}
	if err := cmdSim(base); err != nil {
		t.Fatalf("desim sim: %v", err)
	}
	e, err := dessched.ReadLedger(path)
	if err != nil || len(e) != 3 {
		t.Fatalf("ledger: %d entries, %v", len(e), err)
	}
	if e[0].Fingerprint == e[1].Fingerprint {
		t.Errorf("chaos with and without -retry-max both record fingerprint %s", e[0].Fingerprint)
	}
	for _, c := range e[:2] {
		if c.Fingerprint == e[2].Fingerprint {
			t.Errorf("chaos entry records the fault-free sim's fingerprint %s", c.Fingerprint)
		}
	}
}
