package httpapi

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dessched/internal/admission"
	"dessched/internal/cluster"
	"dessched/internal/registry"
	"dessched/internal/sim"
	"dessched/internal/workload"
)

// TestSchedulerSpellingsGolden pins the /v1/simulate response body, byte
// for byte, for every scheduler the endpoint runs at a small fixed load:
// DES on each DVFS architecture, every greedy baseline with and without
// water-filling, plus a discrete-ladder run and a chaos run with its
// resilience report. The digests were recorded when the endpoint still
// spelled these combinations with separate "arch" and "wf" fields (DES
// ignored "wf", hence its repeated rows); the canonical names must
// reproduce them.
func TestSchedulerSpellingsGolden(t *testing.T) {
	srv := server(t)
	for _, g := range []struct {
		policy, extra, digest string
	}{
		{"des", ``, "b8ad93d09d152c76"},
		{"des-s", ``, "7d555f379caf7715"},
		{"des-no", ``, "73fe894e84cb22ca"},
		{"des", ``, "b8ad93d09d152c76"},
		{"des-s", ``, "7d555f379caf7715"},
		{"des-no", ``, "73fe894e84cb22ca"},
		{"fcfs", ``, "27a3749d0dc7c5c7"},
		{"ljf", ``, "5858a44bc41cad1e"},
		{"sjf", ``, "b575631a6cf45009"},
		{"edf", ``, "9e3c0991ab9210da"},
		{"prio-sjf", ``, "9e05aa3a7c40cd08"},
		{"prio-edf", ``, "eb66103e2910d667"},
		{"fcfs-wf", ``, "15dff3cae45a0a31"},
		{"ljf-wf", ``, "6acc1a3ca084a564"},
		{"sjf-wf", ``, "3d56bc2ff9dd5306"},
		{"edf-wf", ``, "fc1e18c21f3fa843"},
		{"prio-sjf-wf", ``, "bab5c0e6b7ddaa5f"},
		{"prio-edf-wf", ``, "1daa3f7babdaafdf"},
		{"sjf", `,"discrete":true`, "9e82a6a552ae8d1d"},
		{"des", `,"chaos_seed":3`, "45f6277ab2d3d514"},
	} {
		body := `{"policy":"` + g.policy + `","cores":2,"budget_w":40,"rate":10,"duration_s":3` + g.extra + `}`
		resp, out := postJSON(t, srv.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d (%s)", body, resp.StatusCode, out)
			continue
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:8]); got != g.digest {
			t.Errorf("%s: digest %s, want %s", body, got, g.digest)
		}
	}
}

// spellings returns every name and alias of one registry kind.
func spellings(k registry.Kind) []string {
	var out []string
	for _, e := range registry.ByKind(k) {
		out = append(out, e.Name)
		out = append(out, e.Aliases...)
	}
	return out
}

// TestEveryPolicyNameOnEveryEndpoint: every spelling of every policy kind
// is accepted by every endpoint that takes that kind, and a /v1/simulate
// run gives the same result as the engine run directly with the parsed
// spec.
func TestEveryPolicyNameOnEveryEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{}))
	defer srv.Close()
	const small = `"cores":2,"budget_w":40,"rate":10,"duration_s":2`
	const classed = `"servers":2,"cores":2,"budget_w":40,"duration_s":2,"workload":` + twoClassWorkloadJSON
	const grid = `"rates":[10],"cores":[2],"budgets_w":[40],"seeds":[1],"duration_s":2`
	post := func(url, body string) []byte {
		t.Helper()
		resp, out := postJSON(t, srv.URL+url, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d (%s)", url, body, resp.StatusCode, out)
		}
		return out
	}
	stream := func(query string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/stream?rate=10&duration_s=1&" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		frames := parseSSE(t, resp.Body)
		if resp.StatusCode != http.StatusOK || len(frames) == 0 || frames[len(frames)-1].event != "done" {
			t.Errorf("/v1/stream?%s: status %d, frames %v", query, resp.StatusCode, frames)
		}
	}
	wl := workload.DefaultConfig(10)
	wl.Duration = 2
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	schedulers := spellings(registry.KindScheduler)
	for _, name := range schedulers {
		spec, err := cluster.ParsePolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := sim.PaperConfig()
		cfg.Cores, cfg.Budget = 2, 40
		spec.Configure(&cfg)
		want, err := sim.Run(cfg, jobs, spec.New())
		if err != nil {
			t.Fatal(err)
		}
		var got SimResponse
		if err := json.Unmarshal(post("/v1/simulate", fmt.Sprintf(`{"policy":%q,%s}`, name, small)), &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Policy != want.Policy || got.Quality != want.Quality || got.EnergyJ != want.Energy ||
			got.Completed != want.Completed || got.Deadlined != want.Deadlined || got.Invocations != want.Invocation {
			t.Errorf("/v1/simulate %q = %+v, want %s", name, got, want.String())
		}
		post("/v1/cluster/simulate", fmt.Sprintf(`{"servers":2,"policy":%q,%s}`, name, small))
		stream("policy=" + name)
	}
	all, _ := json.Marshal(schedulers)
	post("/v1/sweep", fmt.Sprintf(`{%s,"policies":%s}`, grid, all))

	for _, name := range spellings(registry.KindQueueOrder) {
		post("/v1/simulate", fmt.Sprintf(`{"queue_order":%q,%s}`, name, small))
		post("/v1/cluster/simulate", fmt.Sprintf(`{"servers":2,"queue_order":%q,%s}`, name, small))
		post("/v1/sweep", fmt.Sprintf(`{%s,"policies":["des"],"queue_order":%q}`, grid, name))
	}
	for _, name := range spellings(registry.KindAdmission) {
		shed := fmt.Sprintf(`"admission":{"policy":%q,"max_queue":8}`, name)
		post("/v1/simulate", fmt.Sprintf(`{%s,%s}`, shed, small))
		post("/v1/cluster/simulate", fmt.Sprintf(`{"servers":2,%s,%s}`, shed, small))
		maxQueue := 8
		if p, _ := admission.ParsePolicy(name); p == admission.None {
			maxQueue = 0 // a sweep takes max_queue only with a shedding policy
		}
		post("/v1/sweep", fmt.Sprintf(`{%s,"policies":["des"],"admission":%q,"max_queue":%d}`, grid, name, maxQueue))
	}
	for _, name := range spellings(registry.KindDispatch) {
		post("/v1/cluster/simulate", fmt.Sprintf(`{"dispatch":%q,%s}`, name, classed))
		post("/v1/sweep", fmt.Sprintf(`{"cores":[2],"budgets_w":[40],"seeds":[1],"duration_s":2,"policies":["des"],"servers":2,"dispatch":%q,"workload":%s}`, name, twoClassWorkloadJSON))
		// The stream runs the classless single-rate generator, so it
		// rejects by-class up front (TestPolicyNamesRejectedUniformly).
		if d, _ := cluster.ParseDispatch(name); d != cluster.ByClass {
			stream("servers=2&dispatch=" + name)
		}
	}
}
