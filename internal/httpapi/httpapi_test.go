package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func server(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewMux())
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := server(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestListExperiments(t *testing.T) {
	srv := server(t)
	resp, err := http.Get(srv.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) < 12 {
		t.Fatalf("only %d experiments listed", len(list))
	}
	found := false
	for _, e := range list {
		if e.ID == "fig3" && strings.Contains(e.Paper, "Figure 3") {
			found = true
		}
	}
	if !found {
		t.Error("fig3 missing from listing")
	}
}

func TestRunExperiment(t *testing.T) {
	srv := server(t)
	body, _ := json.Marshal(RunRequest{Duration: 5, Seed: 1, Rates: []float64{120}})
	resp, err := http.Post(srv.URL+"/v1/experiments/fig5", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var tabs []TableJSON
	if err := json.NewDecoder(resp.Body).Decode(&tabs); err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 || tabs[0].Name != "fig5a" {
		t.Fatalf("tables = %+v", tabs)
	}
	if len(tabs[0].Rows) != 1 || len(tabs[0].Rows[0]) != 4 {
		t.Fatalf("rows = %+v", tabs[0].Rows)
	}
	if tabs[0].X[0] != 120 {
		t.Errorf("x = %v", tabs[0].X)
	}
	// DES column leads.
	if tabs[0].Columns[0] != "DES" || tabs[0].Rows[0][0] <= tabs[0].Rows[0][3] {
		t.Errorf("quality ordering wrong: %v", tabs[0].Rows[0])
	}
}

func TestRunExperimentNotFound(t *testing.T) {
	srv := server(t)
	resp, err := http.Post(srv.URL+"/v1/experiments/nope", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestRunExperimentBadBody(t *testing.T) {
	srv := server(t)
	resp, err := http.Post(srv.URL+"/v1/experiments/fig5", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestSimulateDES(t *testing.T) {
	srv := server(t)
	body, _ := json.Marshal(SimRequest{Policy: "des", Cores: 4, Budget: 80, Rate: 30, Duration: 5})
	resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res SimResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Policy != "DES/C-DVFS" {
		t.Errorf("policy = %q", res.Policy)
	}
	if res.NormQuality <= 0.8 || res.NormQuality > 1 {
		t.Errorf("quality = %v", res.NormQuality)
	}
	if res.BudgetViolations != 0 {
		t.Errorf("violations = %d", res.BudgetViolations)
	}
}

func TestSimulateBaselineAndArchVariants(t *testing.T) {
	srv := server(t)
	for _, body := range []SimRequest{
		{Policy: "fcfs-wf", Cores: 2, Budget: 40, Rate: 10, Duration: 3},
		{Policy: "edf", Cores: 2, Budget: 40, Rate: 10, Duration: 3},
		{Policy: "des-s", Cores: 2, Budget: 40, Rate: 10, Duration: 3},
		{Policy: "des-no", Cores: 2, Budget: 40, Rate: 10, Duration: 3},
		{Policy: "sjf", Discrete: true, Cores: 2, Budget: 40, Rate: 10, Duration: 3},
	} {
		b, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%+v: status %d", body, resp.StatusCode)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	srv := server(t)
	for _, body := range []string{
		`{"policy":"des"}`,                      // no rate
		`{"policy":"warp","rate":10}`,           // unknown policy
		`{"policy":"des","arch":"s","rate":10}`, // arch is not a field: spell des-s
		`{"policy":"fcfs","wf":true,"rate":10}`, // wf is not a field: spell fcfs-wf
	} {
		resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestSimulatePartialFraction(t *testing.T) {
	srv := server(t)
	half := 0.0
	body, _ := json.Marshal(SimRequest{Policy: "des", Cores: 2, Budget: 40, Rate: 40, Duration: 5, Partial: &half})
	resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res SimResponse
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	// With no partial support under overload, some jobs are discarded.
	if res.Discarded == 0 {
		t.Errorf("expected discards with partial_fraction=0: %+v", res)
	}
}
