package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"dessched"
	"dessched/internal/cluster"
)

// cmdSweep fans a parameter grid (rate × cores × budget × policy × seed)
// across a bounded worker pool and writes the report as JSON and/or CSV.
// Results are bit-identical for any -workers value; Ctrl-C aborts cleanly.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	rates := fs.String("rates", "60,90,120", "comma-separated arrival rates, req/s")
	cores := fs.String("cores", "16", "comma-separated core counts")
	budgets := fs.String("budgets", "320", "comma-separated power budgets, W")
	policies := fs.String("policies", "des", "comma-separated schedulers: "+cluster.Policies.Help())
	seeds := fs.String("seeds", "1", "comma-separated workload seeds")
	duration := fs.Float64("duration", 60, "simulated seconds per cell")
	servers := fs.Int("servers", 1, "servers per cell; >1 runs each cell as a cluster")
	pf := registerPolicyFlags(fs, policyFlags{Order: "fcfs", Admission: "none", MaxQueue: 64, Dispatch: "rr"}, true)
	globalFrac := fs.Float64("global-frac", 0, "global budget as a fraction of summed nominal budgets (0 = no hierarchy)")
	epoch := fs.Float64("epoch", 0, "cluster budget-reflow epoch, s (0 = default)")
	workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS); never affects results")
	workloadFile := fs.String("workload", "", "declarative workload spec (.json); replaces -rates (the spec fixes per-class rates)")
	telemetryOn := fs.Bool("telemetry", false, "attach a metrics snapshot to every cell (JSON output only)")
	outJSON := fs.String("out", "", "write the JSON report to this file (\"-\" = stdout)")
	outCSV := fs.String("csv", "", "write the per-cell CSV to this file (\"-\" = stdout)")
	ledgerPath := fs.String("ledger", "", "append a dessched-run/v1 provenance manifest of the sweep to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	grid := dessched.SweepGrid{
		Duration:         *duration,
		Servers:          *servers,
		Dispatch:         pf.Dispatch,
		QueueOrder:       pf.Order,
		GlobalBudgetFrac: *globalFrac,
		Epoch:            *epoch,
	}
	// The grid's admission fields are all-or-nothing: only set them when a
	// policy is actually selected (Validate rejects a stray max-queue).
	if ac, err := pf.admissionConfig(); err != nil {
		return err
	} else if ac.Policy != dessched.AdmitAll {
		grid.Admission = pf.Admission
		grid.MaxQueue = ac.MaxQueue
	}
	var err error
	if *workloadFile != "" {
		ratesSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "rates" {
				ratesSet = true
			}
		})
		if ratesSet {
			return fmt.Errorf("-rates cannot be combined with -workload (the spec fixes per-class rates)")
		}
		if grid.Workload, err = readWorkloadSpec(*workloadFile); err != nil {
			return err
		}
	} else if grid.Rates, err = parseFloats(*rates); err != nil {
		return fmt.Errorf("-rates: %w", err)
	}
	if grid.Budgets, err = parseFloats(*budgets); err != nil {
		return fmt.Errorf("-budgets: %w", err)
	}
	if grid.Cores, err = parseInts(*cores); err != nil {
		return fmt.Errorf("-cores: %w", err)
	}
	if grid.Seeds, err = parseUints(*seeds); err != nil {
		return fmt.Errorf("-seeds: %w", err)
	}
	for _, p := range strings.Split(*policies, ",") {
		if p = strings.TrimSpace(p); p != "" {
			grid.Policies = append(grid.Policies, p)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cells := grid.Cells()
	if grid.Workload != nil {
		statusLog.Info("sweep start", "cells", len(cells), "workload", grid.Workload.Name,
			"classes", len(grid.Workload.Classes), "cores", len(grid.Cores),
			"budgets", len(grid.Budgets), "policies", len(grid.Policies), "seeds", len(grid.Seeds))
	} else {
		statusLog.Info("sweep start", "cells", len(cells), "rates", len(grid.Rates),
			"cores", len(grid.Cores), "budgets", len(grid.Budgets),
			"policies", len(grid.Policies), "seeds", len(grid.Seeds))
	}

	rep, err := dessched.RunSweep(ctx, grid, dessched.SweepOptions{Workers: *workers, Telemetry: *telemetryOn})
	if err != nil {
		return err
	}
	statusLog.Info("sweep done", "cells", len(rep.Cells),
		"wall_s", fmt.Sprintf("%.2f", rep.WallSeconds),
		"cells_per_s", fmt.Sprintf("%.1f", rep.CellsPerSec), "workers", rep.Workers)

	if *ledgerPath != "" {
		e := dessched.SweepLedgerEntry(rep)
		e.Cmd = "sweep"
		e.Workload = *workloadFile
		e.WorkloadHash = hashWorkloadFile(*workloadFile)
		if err := recordLedger(*ledgerPath, e); err != nil {
			return err
		}
	}

	wrote := false
	if *outJSON != "" {
		if err := writeTo(*outJSON, func(f *os.File) error { return dessched.WriteSweepJSON(f, rep) }); err != nil {
			return err
		}
		wrote = true
	}
	if *outCSV != "" {
		if err := writeTo(*outCSV, func(f *os.File) error { return dessched.WriteSweepCSV(f, rep) }); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		return dessched.WriteSweepCSV(os.Stdout, rep)
	}
	return nil
}

// writeTo writes through fn to path, with "-" meaning stdout.
func writeTo(path string, fn func(*os.File) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := fn(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
