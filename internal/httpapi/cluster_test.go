package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestClusterSimulate(t *testing.T) {
	srv := server(t)
	resp, body := postJSON(t, srv.URL+"/v1/cluster/simulate", `{
		"servers": 4, "cores": 4, "budget_w": 80, "rate": 120,
		"duration_s": 10, "dispatch": "rr", "global_budget_w": 240
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out ClusterSimResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Servers != 4 || len(out.PerServer) != 4 {
		t.Errorf("fleet shape: %+v", out)
	}
	if out.Arrived == 0 || out.Quality <= 0 {
		t.Errorf("empty run: %+v", out)
	}
	sum := 0
	for _, s := range out.PerServer {
		sum += s.Jobs
	}
	if sum != out.Arrived {
		t.Errorf("per-server jobs sum %d != arrived %d", sum, out.Arrived)
	}
}

func TestClusterSimulateTelemetryAndSeries(t *testing.T) {
	srv := server(t)

	// Off by default: neither field appears in the response.
	_, body := postJSON(t, srv.URL+"/v1/cluster/simulate",
		`{"servers": 2, "cores": 4, "budget_w": 80, "rate": 60, "duration_s": 5}`)
	if bytes.Contains(body, []byte(`"telemetry"`)) || bytes.Contains(body, []byte(`"series"`)) {
		t.Fatalf("telemetry/series attached without opting in: %s", body)
	}

	resp, body := postJSON(t, srv.URL+"/v1/cluster/simulate", `{
		"servers": 2, "cores": 4, "budget_w": 80, "rate": 60,
		"duration_s": 5, "telemetry": true, "series": true
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out ClusterSimResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Telemetry == nil {
		t.Fatal("telemetry snapshot missing")
	}
	families := map[string]bool{}
	for _, f := range out.Telemetry.Families {
		families[f.Name] = true
	}
	for _, want := range []string{"cluster_norm_quality", "sim_norm_quality"} {
		if !families[want] {
			t.Errorf("snapshot missing family %q (have %v)", want, families)
		}
	}
	if len(out.Series) == 0 {
		t.Fatal("epoch series missing")
	}
	servers := map[int]bool{}
	for _, s := range out.Series {
		if s.Epoch < 0 || s.Server < 0 || s.Server > 1 {
			t.Fatalf("bad sample %+v", s)
		}
		servers[s.Server] = true
	}
	if !servers[0] || !servers[1] {
		t.Errorf("series covers servers %v, want both", servers)
	}
}

// TestClusterSimulateStreamed: the streamed pipeline returns byte-identical
// responses to the batch path (the response carries no engine-lifetime
// counters, so the documented Events divergence cannot surface), and raises
// the fleet ceiling from 64 to 1024 servers.
func TestClusterSimulateStreamed(t *testing.T) {
	srv := server(t)
	base := `"servers": 4, "cores": 4, "budget_w": 80, "rate": 120,
		"duration_s": 10, "dispatch": "rr", "global_budget_w": 240`
	respA, plain := postJSON(t, srv.URL+"/v1/cluster/simulate", `{`+base+`}`)
	respB, streamed := postJSON(t, srv.URL+"/v1/cluster/simulate", `{`+base+`, "stream": true}`)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("status = %d / %d: %s", respA.StatusCode, respB.StatusCode, streamed)
	}
	if !bytes.Equal(plain, streamed) {
		t.Errorf("the no-op stream field changed the response\nplain    %s\nstreamed %s", plain, streamed)
	}

	// Every fleet request gets the 1,024-server ceiling.
	big := `"servers": 128, "cores": 4, "budget_w": 80, "rate": 240, "duration_s": 2`
	resp, body := postJSON(t, srv.URL+"/v1/cluster/simulate", `{`+big+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("128-server fleet rejected: %d %s", resp.StatusCode, body)
	}
	var out ClusterSimResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Servers != 128 || len(out.PerServer) != 128 {
		t.Errorf("fleet shape: servers=%d per_server=%d", out.Servers, len(out.PerServer))
	}
	resp, body = postJSON(t, srv.URL+"/v1/cluster/simulate", `{"servers": 1025, "rate": 60, "stream": true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1025-server fleet accepted: %d %s", resp.StatusCode, body)
	}
}

// TestClusterSimulateRejectsTooManyEpochs: a duration spanning more than
// cluster.MaxEpochs dispatch epochs is refused up front with a 400 on both
// fleet endpoints, instead of stepping through millions of epochs.
func TestClusterSimulateRejectsTooManyEpochs(t *testing.T) {
	srv := server(t)
	resp, body := postJSON(t, srv.URL+"/v1/cluster/simulate",
		`{"servers": 2, "rate": 10, "duration_s": 600, "epoch_s": 0.001}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "epoch_s") {
		t.Errorf("/v1/cluster/simulate: status %d %s, want a 400 naming epoch_s", resp.StatusCode, body)
	}
	full := httptest.NewServer(NewHandler(Options{}))
	defer full.Close()
	sresp, err := http.Get(full.URL + "/v1/stream?servers=2&rate=10&duration_s=600&epoch_s=0.001")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusBadRequest || !strings.Contains(string(sbody), "epoch_s") {
		t.Errorf("/v1/stream: status %d %s, want a 400 naming epoch_s", sresp.StatusCode, sbody)
	}
}

func TestClusterSimulateChaosSeed(t *testing.T) {
	srv := server(t)
	body := `{"servers": 2, "cores": 4, "budget_w": 80, "rate": 60,
		"duration_s": 10, "chaos_seed": 7}`
	_, a := postJSON(t, srv.URL+"/v1/cluster/simulate", body)
	_, b := postJSON(t, srv.URL+"/v1/cluster/simulate", body)
	if !bytes.Equal(a, b) {
		t.Error("chaos-seeded cluster runs are not reproducible")
	}
}

func TestClusterSimulateValidation(t *testing.T) {
	srv := server(t)
	cases := []struct {
		name string
		body string
		code string
	}{
		{"no servers", `{"rate": 60}`, "invalid_config"},
		{"too many servers", `{"servers": 1025, "rate": 60}`, "invalid_config"},
		{"too many cores", `{"servers": 1, "cores": 257, "rate": 10, "duration_s": 1}`, "invalid_config"},
		{"negative cores", `{"servers": 1, "cores": -3, "rate": 10, "duration_s": 1}`, "invalid_config"},
		{"negative budget", `{"servers": 1, "budget_w": -80, "rate": 10, "duration_s": 1}`, "invalid_config"},
		{"no rate", `{"servers": 2}`, "invalid_config"},
		{"bad dispatch", `{"servers": 2, "rate": 60, "dispatch": "nope"}`, "invalid_config"},
		{"bad policy", `{"servers": 2, "rate": 60, "policy": "nope"}`, "invalid_config"},
		{"unknown field", `{"servers": 2, "rate": 60, "bogus": 1}`, "bad_request"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv.URL+"/v1/cluster/simulate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d: %s", tc.name, resp.StatusCode, body)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: not an error envelope: %s", tc.name, body)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q (%s)", tc.name, env.Error.Code, tc.code, env.Error.Message)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty message", tc.name)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := server(t)
	resp, body := postJSON(t, srv.URL+"/v1/sweep", `{
		"rates": [30, 60], "cores": [4], "budgets_w": [80],
		"policies": ["des", "fcfs-wf"], "seeds": [1], "duration_s": 5,
		"workers": 4
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Schema string `json:"schema"`
		Cells  []struct {
			Policy      string  `json:"policy"`
			NormQuality float64 `json:"norm_quality"`
			Arrived     int     `json:"arrived"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "dessched-sweep/v1" || len(rep.Cells) != 4 {
		t.Errorf("report shape: schema=%q cells=%d", rep.Schema, len(rep.Cells))
	}
	for i, c := range rep.Cells {
		if c.Arrived == 0 {
			t.Errorf("cell %d empty", i)
		}
	}
}

func TestSweepCellCap(t *testing.T) {
	srv := server(t)
	// 11 × 10 × 10 = 1100 cells > 1024.
	var rates, budgets []string
	for i := 0; i < 11; i++ {
		rates = append(rates, "60")
	}
	for i := 0; i < 10; i++ {
		budgets = append(budgets, "320")
	}
	seeds := make([]string, 10)
	for i := range seeds {
		seeds[i] = "1"
	}
	for _, body := range []string{
		`{"rates": [` + strings.Join(rates, ",") + `], "budgets_w": [` +
			strings.Join(budgets, ",") + `], "seeds": [` + strings.Join(seeds, ",") + `]}`,
		// Every cores entry is held to the per-server core cap.
		`{"rates": [10], "cores": [4, 257], "duration_s": 1}`,
	} {
		resp, out := postJSON(t, srv.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.60s: accepted: %d %s", body, resp.StatusCode, out)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(out, &env); err != nil || env.Error.Code != "invalid_config" {
			t.Errorf("%.60s: want invalid_config envelope, got %s", body, out)
		}
	}
}

// TestErrorEnvelopeEverywhere: the legacy routes moved to the unified
// envelope too.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	srv := server(t)

	resp, body := postJSON(t, srv.URL+"/v1/experiments/does-not-exist", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an envelope: %s", body)
	}
	if env.Error.Code != "not_found" || env.Error.Message == "" {
		t.Errorf("envelope = %+v", env)
	}

	resp, body = postJSON(t, srv.URL+"/v1/simulate", `{"rate": -1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		t.Errorf("simulate error not enveloped: %s", body)
	}

	// Router-generated errors get the envelope too: wrong method on a
	// real route, and a path no route matches.
	resp, err := http.Get(srv.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST route: status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "method_not_allowed" {
		t.Errorf("405 not enveloped: %s", body)
	}

	resp, err = http.Get(srv.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "not_found" {
		t.Errorf("router 404 not enveloped: %s", body)
	}
}
