package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// decodeError unpacks the unified {"error":{code,message}} envelope.
func decodeError(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var env struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope does not parse: %v (%s)", err, body)
	}
	return env.Error
}

// TestPolicyNamesRejectedUniformly pins the registry contract at the HTTP
// boundary: an unknown scheduler, queue order, admission policy, or
// dispatch policy on any endpoint yields 400 with the invalid_config
// envelope — the stream included, before it opens.
func TestPolicyNamesRejectedUniformly(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	cases := []struct{ url, body string }{
		{"/v1/simulate", `{"policy":"warp","rate":10,"duration_s":2}`},
		{"/v1/cluster/simulate", `{"servers":2,"policy":"warp","rate":10,"duration_s":2}`},
		{"/v1/sweep", `{"rates":[10],"cores":[2],"budgets_w":[40],"policies":["warp"],"seeds":[1],"duration_s":2}`},
		{"/v1/stream?policy=warp&rate=10&duration_s=1", ""},
		{"/v1/stream?dispatch=teleport&rate=10&duration_s=1", ""},
		{"/v1/stream?dispatch=by-class&servers=2&rate=10&duration_s=1", ""},
		{"/v1/simulate", `{"policy":"des","rate":10,"duration_s":2,"queue_order":"lifo"}`},
		{"/v1/simulate", `{"policy":"des","rate":10,"duration_s":2,"admission":{"policy":"wat","max_queue":8}}`},
		{"/v1/cluster/simulate", `{"servers":2,"rate":10,"duration_s":2,"queue_order":"lifo"}`},
		{"/v1/cluster/simulate", `{"servers":2,"rate":10,"duration_s":2,"admission":{"policy":"wat","max_queue":8}}`},
		{"/v1/cluster/simulate", `{"servers":2,"rate":10,"duration_s":2,"dispatch":"teleport"}`},
		{"/v1/sweep", `{"rates":[10],"cores":[2],"budgets_w":[40],"policies":["des"],"seeds":[1],"duration_s":2,"queue_order":"lifo"}`},
		{"/v1/sweep", `{"rates":[10],"cores":[2],"budgets_w":[40],"policies":["des"],"seeds":[1],"duration_s":2,"admission":"wat","max_queue":8}`},
		{"/v1/sweep", `{"rates":[10],"cores":[2],"budgets_w":[40],"policies":["des"],"seeds":[1],"duration_s":2,"servers":2,"dispatch":"teleport"}`},
	}
	for _, c := range cases {
		var resp *http.Response
		var body []byte
		if c.body == "" {
			var err error
			if resp, err = http.Get(srv.URL + c.url); err != nil {
				t.Fatal(err)
			}
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		} else {
			resp, body = postJSON(t, srv.URL+c.url, c.body)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", c.url, c.body, resp.StatusCode, body)
			continue
		}
		if e := decodeError(t, body); e.Code != "invalid_config" {
			t.Errorf("%s %s: error code %q, want invalid_config", c.url, c.body, e.Code)
		}
	}
}

// TestSimulateQueueOrderAccepted runs each registered discipline through
// /v1/simulate, with a classed workload spec feeding the priority hybrids.
func TestSimulateQueueOrderAccepted(t *testing.T) {
	srv := server(t)
	const workload = `{
		"schema": "dessched-workload/v1", "name": "qo", "duration_s": 2, "seed": 3,
		"classes": [
			{"name": "interactive", "rate": 40, "deadline_s": 0.15, "priority": 2,
			 "demand": {"dist": "bounded-pareto", "alpha": 3, "min": 130, "max": 1000}},
			{"name": "batch", "rate": 5, "deadline_s": 1, "priority": 1,
			 "demand": {"dist": "uniform", "min": 200, "max": 800}}
		]
	}`
	for _, order := range []string{"fcfs", "sjf", "edf", "prio-sjf", "prio-edf"} {
		resp, body := postJSON(t, srv.URL+"/v1/simulate",
			`{"policy":"des","cores":4,"budget_w":80,"duration_s":2,"queue_order":"`+order+`","workload":`+workload+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("queue_order %q: status %d (%s)", order, resp.StatusCode, body)
			continue
		}
		var res SimResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Arrived == 0 || res.NormQuality <= 0 {
			t.Errorf("queue_order %q: empty run %+v", order, res)
		}
	}
}

// TestClusterByClassDispatchAccepted drives by-class dispatch end to end
// through the cluster endpoint, on both the batch and streamed paths.
func TestClusterByClassDispatchAccepted(t *testing.T) {
	srv := server(t)
	const base = `"servers": 4, "cores": 4, "budget_w": 80, "duration_s": 2,
		"dispatch": "by-class", "queue_order": "prio-sjf",
		"admission": {"policy": "priority", "max_queue": 64},
		"workload": {
			"schema": "dessched-workload/v1", "name": "qo", "duration_s": 2, "seed": 3,
			"classes": [
				{"name": "interactive", "rate": 40, "deadline_s": 0.15, "priority": 2,
				 "demand": {"dist": "bounded-pareto", "alpha": 3, "min": 130, "max": 1000}},
				{"name": "batch", "rate": 5, "deadline_s": 1, "priority": 1,
				 "demand": {"dist": "uniform", "min": 200, "max": 800}}
			]
		}`
	respA, batch := postJSON(t, srv.URL+"/v1/cluster/simulate", `{`+base+`}`)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", respA.StatusCode, batch)
	}
	respB, streamed := postJSON(t, srv.URL+"/v1/cluster/simulate", `{`+base+`, "stream": true}`)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d: %s", respB.StatusCode, streamed)
	}
	var a, b ClusterSimResponse
	if err := json.Unmarshal(batch, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(streamed, &b); err != nil {
		t.Fatal(err)
	}
	if a.Arrived == 0 || len(a.PerServer) != 4 {
		t.Errorf("empty by-class run: %+v", a)
	}
	if a.Quality != b.Quality || a.EnergyJ != b.EnergyJ || a.Arrived != b.Arrived {
		t.Errorf("by-class batch/stream divergence: %+v vs %+v", a, b)
	}
}
