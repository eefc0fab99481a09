package sim_test

import (
	"testing"

	"dessched/internal/core"
	"dessched/internal/sim"
)

// livePopDigests pins, per engine golden scenario, a digest of every event
// the engine pops: its time, sequence number, kind, core and job. The values
// were recorded on the engine that pushed the end of every segment of
// every installed plan into its heap, over the pops that were live there —
// all but the segment ends of replaced plans — so they hold each core's
// segment timer to exactly the (time, seq) order those events had.
var livePopDigests = map[string]uint64{
	"paper-light":            0x33bf235ff1e1ffe9, // 2459 pops
	"paper-heavy":            0x38737afc7602ddef, // 4761 pops
	"chaotic":                0x784e8318265db98e, // 1128 pops
	"retry-outage":           0xca281ac0d79fbeab, // 1203 pops
	"sdvfs-discrete":         0xc28b6c02b3760ef3, // 1455 pops
	"nodvfs-idle-burn":       0x8fcd4c12819e826c, // 1321 pops
	"nodvfs-budget-fault":    0xc91ae59cf91a8c95, // 1323 pops
	"fcfs-wf":                0x8d92b41c46d22cd0, // 995 pops
	"immediate-triggers":     0x40c495e6db637ac8, // 959 pops
	"classed-prio-admission": 0x742635b6a3fbe8e7, // 1093 pops
	"grid-ties":              0x6a5d7591a957a8cb, // 1191 pops
	"unsorted-ties":          0x1e1e67340280cafd, // 955 pops
}

// Every pop is live — DriveLivePops fails on a replaced plan's segment
// end — pops in the pinned order, and counts in Events.
func TestLivePopOrderGolden(t *testing.T) {
	for _, g := range engineGoldens() {
		t.Run(g.name, func(t *testing.T) {
			cfg := g.cfg()
			core.ApplyArch(&cfg, g.arch)
			st, err := sim.Start(cfg, g.jobs(t), g.policy())
			if err != nil {
				t.Fatal(err)
			}
			d, pops := newDigest(), 0
			err = sim.DriveLivePops(st, func(p sim.LivePop) {
				d.f(p.Time)
				d.u64(p.Seq)
				d.i(p.Kind)
				d.i(p.Core)
				d.i(int(p.Job))
				pops++
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if want := livePopDigests[g.name]; d.h != want {
				t.Errorf("live pop digest %#x, want %#x (%d pops)", d.h, want, pops)
			}
			if pops != res.Events {
				t.Errorf("%d pops, but Events counts %d", pops, res.Events)
			}
		})
	}
}
