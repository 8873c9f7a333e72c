package prof

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"ucudnn/internal/flight"
)

// EvProfileSnapshot marks a profiler snapshot being read (by a report
// writer or the debug server). Args: rows, registered phases,
// attributed ns, measured ns.
const EvProfileSnapshot flight.Name = "ucudnn_ev_profile_snapshot"

var evSnapshot = flight.Register(EvProfileSnapshot, func(a, b, c, d int64) string {
	return "rows=" + strconv.FormatInt(a, 10) +
		" phases=" + strconv.FormatInt(b, 10) +
		" attributed_ns=" + strconv.FormatInt(c, 10) +
		" measured_ns=" + strconv.FormatInt(d, 10)
})

func recSnapshot(rows, phases, attributed, measured int64) {
	flight.Rec(evSnapshot, rows, phases, attributed, measured)
}

// EvLaunchWindow marks one parallel kernel launch window closing. Args:
// workers, Σ per-worker busy ns, wall ns.
// The event is stamped with the enclosing causal span like every flight
// event, which is what correlates worker-level launch accounting with
// the conv call and layer on the unified timeline.
const EvLaunchWindow flight.Name = "ucudnn_ev_launch_window"

var evLaunchWindow = flight.Register(EvLaunchWindow, func(a, b, c, d int64) string {
	return "workers=" + strconv.FormatInt(a, 10) +
		" busy_ns=" + strconv.FormatInt(b, 10) +
		" wall_ns=" + strconv.FormatInt(c, 10)
})

// PhaseTotal is one phase's aggregate across every attribution row.
type PhaseTotal struct {
	Phase string `json:"phase"`
	NS    int64  `json:"ns"`
	Count int64  `json:"count"`
}

// PhaseTotals aggregates phase time across every row (including the
// unattributed one), heaviest first; phases never recorded are omitted.
func PhaseTotals() []PhaseTotal {
	rowMu.Lock()
	rs := make([]*row, 0, len(rows)+1)
	for _, r := range rows {
		rs = append(rs, r)
	}
	rowMu.Unlock()
	rs = append(rs, orphan)
	var ns, n [maxKinds]int64
	for _, r := range rs {
		for i := range r.phaseNS {
			ns[i] += r.phaseNS[i].Load()
			n[i] += r.phaseN[i].Load()
		}
	}
	var out []PhaseTotal
	for i := range ns {
		if n[i] == 0 && ns[i] == 0 {
			continue
		}
		out = append(out, PhaseTotal{Phase: phaseName(Kind(i + 1)), NS: ns[i], Count: n[i]})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].NS != out[b].NS {
			return out[a].NS > out[b].NS
		}
		return out[a].Phase < out[b].Phase
	})
	return out
}

// dumpTopPhases is how many phases the flight dump section lists.
const dumpTopPhases = 16

func init() {
	flight.RegisterDumpSection(dumpSection)
}

// dumpSection rides along in the flight recorder's SIGQUIT dump: the
// top phases by accumulated time, so a stuck process shows where kernel
// time has been going.
func dumpSection(w io.Writer) {
	if !on.Load() {
		fmt.Fprintln(w, "prof: profiling disabled")
		return
	}
	tot := PhaseTotals()
	if len(tot) == 0 {
		fmt.Fprintln(w, "prof: profiling enabled, no phases recorded")
		return
	}
	if len(tot) > dumpTopPhases {
		tot = tot[:dumpTopPhases]
	}
	fmt.Fprintf(w, "prof: top %d phases by accumulated time:\n", len(tot))
	for _, p := range tot {
		fmt.Fprintf(w, "  %-36s %14.3fms  n=%d\n", p.Phase, float64(p.NS)/1e6, p.Count)
	}
}
