package sim

import (
	"fmt"
	"math"

	"dessched/internal/job"
)

// LivePop is one event the engine popped and acted on.
type LivePop struct {
	Time float64
	Seq  uint64
	Kind int    // the engine's event kind
	Core int    // the core of a segment event, -1 otherwise
	Job  job.ID // the job of an arrival, deadline or retry event, -1 otherwise
}

// DriveLivePops runs st's Advance loop to the end of its work, as Finish
// does, and reports every popped event to visit before processing it. A
// segment end that is not one of its core's current plan — a replaced
// plan's — fails the drive: such events must never pop.
func DriveLivePops(st *Stream, visit func(LivePop)) error {
	e := st.e
	for !st.drained {
		it, ok := e.nextEvent(math.Inf(1))
		if !ok {
			break
		}
		ev := it.Payload
		p := LivePop{Time: it.Time, Seq: it.Seq(), Kind: int(ev.kind), Core: -1, Job: -1}
		if ev.kind == evkSegment {
			c := ev.core
			p.Core = c.Index
			if k := it.Seq() - c.segSeq; k >= uint64(len(c.plan)) || c.plan[k].End != it.Time {
				return fmt.Errorf("core %d: stale segment end (%g, seq %d) popped", c.Index, it.Time, it.Seq())
			}
		}
		if ev.js != nil {
			p.Job = ev.js.Job.ID
		}
		visit(p)
		stop, err := e.processEvent(it)
		if err != nil {
			return err
		}
		if stop {
			st.drained = true
		}
	}
	return nil
}
