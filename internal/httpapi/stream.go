package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dessched/internal/cfgerr"
	"dessched/internal/cluster"
	"dessched/internal/sim"
	"dessched/internal/telemetry"
	"dessched/internal/telemetry/ledger"
	"dessched/internal/workload"
)

// GET /v1/stream runs a simulation and streams its per-epoch samples as
// Server-Sent Events while the engines execute. The stream cannot sit
// behind http.TimeoutHandler (it buffers the whole response, defeating
// flush-per-frame delivery), so it is mounted beside the hardened API
// stack and enforces the same limits itself: the request context is
// bounded by Options.RequestTimeout, every frame write carries a
// deadline, and the engine-side sample hook never blocks — a slow or
// stalled client overflows a bounded buffer (frames are counted as
// dropped) and is disconnected by the write deadline, while the engine
// runs to completion or cancellation unimpeded.

// Streaming resource ceilings, tighter than the synchronous endpoints:
// a stream holds its concurrency slot for the whole run.
const (
	maxStreamServers   = 16
	maxStreamDuration  = 600   // seconds of simulated time
	maxStreamThrottle  = 1000  // ms per sample
	minStreamEpoch     = 0.001 // seconds
	frameWriteDeadline = 10 * time.Second
)

// streamSendBuffer bounds the engine→client sample channel. A package
// variable so the slow-client saturation test can shrink it.
var streamSendBuffer = 1024

// streamRetryHintMS is the reconnection delay the stream advertises in
// its opening "retry:" field — EventSource clients that lose the
// connection (a restarted server, a dropped proxy) wait this long before
// reconnecting instead of hammering the endpoint with the browser default.
var streamRetryHintMS = 2000

// streamHeartbeatEvery paces the ": heartbeat" comment frames that keep
// an idle connection alive through proxies and LBs while the engine is
// between samples (a heavily throttled stream can sit silent for long
// wall-clock stretches). A variable so tests can shrink it.
var streamHeartbeatEvery = 15 * time.Second

// WriteSSE writes one Server-Sent Event frame: an optional event name
// line, the data split across one "data:" line per newline, and the
// blank-line terminator. Event names are sanitized (newlines and
// carriage returns stripped) and data is coerced to valid UTF-8, so the
// frame structure cannot be broken by its payload.
func WriteSSE(w io.Writer, event string, data []byte) error {
	var b strings.Builder
	if event != "" {
		event = strings.ToValidUTF8(event, "�")
		event = strings.NewReplacer("\n", "", "\r", "").Replace(event)
		b.WriteString("event: ")
		b.WriteString(event)
		b.WriteByte('\n')
	}
	payload := strings.ToValidUTF8(string(data), "�")
	payload = strings.ReplaceAll(payload, "\r\n", "\n")
	payload = strings.ReplaceAll(payload, "\r", "\n")
	for _, line := range strings.Split(payload, "\n") {
		b.WriteString("data: ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// streamParams is the parsed query of GET /v1/stream.
type streamParams struct {
	servers      int
	policy       string
	dispatch     cluster.Dispatch
	cores        int
	budget       float64
	globalBudget float64
	epoch        float64
	rate         float64
	duration     float64
	seed         uint64
	chaosSeed    *uint64
	throttle     time.Duration
}

func parseStreamParams(r *http.Request) (streamParams, error) {
	q := r.URL.Query()
	p := streamParams{servers: 1, epoch: 1, duration: 30}

	getFloat := func(name string, dst *float64) error {
		if s := q.Get(name); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return cfgerr.New("httpapi", name, "stream: bad %s %q", name, s)
			}
			*dst = v
		}
		return nil
	}
	getInt := func(name string, dst *int) error {
		if s := q.Get(name); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				return cfgerr.New("httpapi", name, "stream: bad %s %q", name, s)
			}
			*dst = v
		}
		return nil
	}
	for name, dst := range map[string]*float64{
		"rate": &p.rate, "duration_s": &p.duration, "epoch_s": &p.epoch,
		"budget_w": &p.budget, "global_budget_w": &p.globalBudget,
	} {
		if err := getFloat(name, dst); err != nil {
			return p, err
		}
	}
	for name, dst := range map[string]*int{"servers": &p.servers, "cores": &p.cores} {
		if err := getInt(name, dst); err != nil {
			return p, err
		}
	}
	if s := q.Get("seed"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return p, cfgerr.New("httpapi", "seed", "stream: bad seed %q", s)
		}
		p.seed = v
	}
	if s := q.Get("chaos_seed"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return p, cfgerr.New("httpapi", "chaos_seed", "stream: bad chaos_seed %q", s)
		}
		p.chaosSeed = &v
	}
	if s := q.Get("throttle_ms"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 || v > maxStreamThrottle {
			return p, cfgerr.New("httpapi", "throttle_ms", "stream: throttle_ms must be in [0, %d], got %q", maxStreamThrottle, s)
		}
		p.throttle = time.Duration(v) * time.Millisecond
	}
	// stream= is a documented no-op (every fleet run pulls its arrivals
	// lazily), still parsed so a malformed value keeps failing loudly.
	if s := q.Get("stream"); s != "" {
		if _, err := strconv.ParseBool(s); err != nil {
			return p, cfgerr.New("httpapi", "stream", "stream: bad stream %q", s)
		}
	}
	spec, err := cluster.ParsePolicy(q.Get("policy"))
	if err != nil {
		return p, err
	}
	p.policy = spec.Name
	if p.dispatch, err = cluster.ParseDispatch(q.Get("dispatch")); err != nil {
		return p, err
	}
	if p.dispatch == cluster.ByClass {
		return p, cfgerr.New("httpapi", "dispatch",
			"stream: by-class dispatch needs a workload spec to name the class partitions; the stream runs the single-rate generator")
	}

	if p.rate <= 0 {
		return p, cfgerr.New("httpapi", "rate", "stream: rate must be positive, got %g", p.rate)
	}
	if p.servers < 1 || p.servers > maxStreamServers {
		return p, cfgerr.New("httpapi", "servers", "stream: servers must be in [1, %d], got %d", maxStreamServers, p.servers)
	}
	if err := checkServer(p.cores, p.budget); err != nil {
		return p, err
	}
	if p.duration <= 0 || p.duration > maxStreamDuration {
		return p, cfgerr.New("httpapi", "duration_s", "stream: duration_s must be in (0, %d], got %g", maxStreamDuration, p.duration)
	}
	if p.epoch < minStreamEpoch {
		return p, cfgerr.New("httpapi", "epoch_s", "stream: epoch_s must be at least %g, got %g", minStreamEpoch, p.epoch)
	}
	return p, checkEpochs(p.duration, p.epoch)
}

// streamDone is the payload of the final "done" frame.
type streamDone struct {
	Servers       int     `json:"servers"`
	NormQuality   float64 `json:"norm_quality"`
	EnergyJ       float64 `json:"energy_j"`
	Arrived       int     `json:"arrived"`
	Completed     int     `json:"completed"`
	Deadlined     int     `json:"deadlined"`
	Shed          int     `json:"shed"`
	SpanS         float64 `json:"span_s"`
	DroppedFrames int64   `json:"dropped_frames"`
	Samples       int     `json:"samples"`
}

// StreamHandler serves GET /v1/stream. See the package comment above for
// the hardening contract it implements in place of the buffered stack.
func StreamHandler(o Options) http.Handler {
	o = o.withDefaults()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, err := parseStreamParams(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), o.RequestTimeout)
		defer cancel()

		samples := make(chan telemetry.Sample, streamSendBuffer)
		var droppedFrames atomic.Int64
		rec := telemetry.NewSeriesRecorder(1) // retention unused; OnSample drives the stream
		rec.OnSample = func(s telemetry.Sample) {
			if p.throttle > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(p.throttle):
				}
			}
			select {
			case samples <- s:
			default:
				droppedFrames.Add(1) // never block the engine on a slow client
			}
		}

		type runOutcome struct {
			res   cluster.Result
			entry ledger.Entry
			err   error
		}
		done := make(chan runOutcome, 1)
		go func() {
			res, entry, err := runStreamSim(ctx, p, rec)
			done <- runOutcome{res, entry, err}
		}()

		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		rc := http.NewResponseController(w)

		// Reconnection hint first, so even a stream that dies before its
		// first sample leaves the client with a sane retry cadence.
		_ = rc.SetWriteDeadline(time.Now().Add(frameWriteDeadline))
		if _, err := fmt.Fprintf(w, "retry: %d\n\n", streamRetryHintMS); err != nil {
			return
		}
		_ = rc.Flush()

		heartbeat := time.NewTicker(streamHeartbeatEvery)
		defer heartbeat.Stop()
		sent := 0
		writeFrame := func(event string, v any) error {
			b, err := json.Marshal(v)
			if err != nil {
				return err
			}
			// Deadline support is best-effort (absent on test recorders).
			_ = rc.SetWriteDeadline(time.Now().Add(frameWriteDeadline))
			if err := WriteSSE(w, event, b); err != nil {
				return err
			}
			return rc.Flush()
		}

		finish := func(out runOutcome) {
			// Drain whatever the engines emitted before completion.
			for {
				select {
				case s := <-samples:
					if writeFrame("sample", s) != nil {
						return
					}
					sent++
				default:
					if out.err != nil {
						_ = writeFrame("error", map[string]string{"error": out.err.Error()})
						return
					}
					api{o: o}.record(r, out.entry)
					_ = writeFrame("done", streamDone{
						Servers:       out.res.Servers,
						NormQuality:   out.res.NormQuality,
						EnergyJ:       out.res.Energy,
						Arrived:       out.res.Arrived,
						Completed:     out.res.Completed,
						Deadlined:     out.res.Deadlined,
						Shed:          out.res.Shed,
						SpanS:         out.res.Span,
						DroppedFrames: droppedFrames.Load(),
						Samples:       sent,
					})
					return
				}
			}
		}

		for {
			select {
			case <-ctx.Done():
				// Timeout or client gone: the engines see the same context
				// and abort; frames already buffered are abandoned.
				_ = writeFrame("error", map[string]string{"error": "stream timed out"})
				return
			case s := <-samples:
				if writeFrame("sample", s) != nil {
					cancel() // slow client dropped; unblock and abort the run
					<-done
					return
				}
				sent++
			case <-heartbeat.C:
				// Comment frame: ignored by EventSource, but keeps the
				// connection warm through idle-connection reapers.
				_ = rc.SetWriteDeadline(time.Now().Add(frameWriteDeadline))
				if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil || rc.Flush() != nil {
					cancel()
					<-done
					return
				}
			case out := <-done:
				finish(out)
				return
			}
		}
	})
}

// runStreamSim executes the streamed simulation: a cluster run (one
// server is simply a fleet of one) whose per-server epoch samplers fan
// into rec's OnSample hook. It returns the run's ledger entry too.
func runStreamSim(ctx context.Context, p streamParams, rec *telemetry.SeriesRecorder) (cluster.Result, ledger.Entry, error) {
	server := sim.PaperConfig()
	if p.cores > 0 {
		server.Cores = p.cores
	}
	if p.budget > 0 {
		server.Budget = p.budget
	}
	server.Context = ctx

	wl := workload.DefaultConfig(p.rate)
	wl.Duration = p.duration
	if p.seed > 0 {
		wl.Seed = p.seed
	}
	src, err := workload.NewStream(wl)
	if err != nil {
		return cluster.Result{}, ledger.Entry{}, err
	}
	cfg := cluster.Config{
		Servers:      p.servers,
		Server:       server,
		Policy:       p.policy,
		Dispatch:     p.dispatch,
		GlobalBudget: p.globalBudget,
		Epoch:        p.epoch,
		Instrument:   &cluster.Instrument{Series: rec},
	}
	if p.chaosSeed != nil {
		faults, err := cluster.ChaosFaults(*p.chaosSeed, wl.Duration, cfg.Servers, server.Cores)
		if err != nil {
			return cluster.Result{}, ledger.Entry{}, err
		}
		cfg.Faults = faults
	}
	res, err := cluster.RunStream(cfg, src)
	if err != nil {
		return cluster.Result{}, ledger.Entry{}, fmt.Errorf("stream: %w", err)
	}
	entry := ledger.FleetEntry(cfg, res)
	entry.Seed = p.seed
	entry.DurationS = p.duration
	return res, entry, nil
}
