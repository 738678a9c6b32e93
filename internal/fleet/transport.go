package fleet

import (
	"fmt"

	"rem/internal/eval"
)

// TransportSummary is the fleet-wide transport-plane aggregate: per-UE
// totals folded by assemble in global UE order (fixed order, so the
// floating-point sums are byte-deterministic at any worker or shard
// count).
type TransportSummary struct {
	Controller      string  `json:"controller"`
	Workload        string  `json:"workload"`
	DeliveredMbit   float64 `json:"delivered_mbit"`
	MeanGoodputMbps float64 `json:"mean_goodput_mbps"`
	MeanRateMbps    float64 `json:"mean_rate_mbps"`
	DownSec         float64 `json:"down_sec"`
	Stalls          int     `json:"stalls"`
	StallSec        float64 `json:"stall_sec"`
	Rebuffers       int     `json:"rebuffers,omitempty"`
	RebufferSec     float64 `json:"rebuffer_sec,omitempty"`
	WebCompleted    int     `json:"web_completed,omitempty"`
}

// transportTable renders the aggregate as a report table in the same
// style as the fleet reliability table.
func transportTable(ts *TransportSummary) eval.Table {
	return eval.Table{
		Title:   "Transport plane",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"controller/workload", ts.Controller + "/" + ts.Workload},
			{"delivered", fmt.Sprintf("%.1f Mbit", ts.DeliveredMbit)},
			{"mean goodput", fmt.Sprintf("%.2f Mbps", ts.MeanGoodputMbps)},
			{"mean send rate", fmt.Sprintf("%.2f Mbps", ts.MeanRateMbps)},
			{"link-down time", fmt.Sprintf("%.1fs", ts.DownSec)},
			{"stalls", fmt.Sprintf("%d", ts.Stalls)},
			{"stall time", fmt.Sprintf("%.1fs", ts.StallSec)},
			{"rebuffers", fmt.Sprintf("%d", ts.Rebuffers)},
			{"rebuffer time", fmt.Sprintf("%.1fs", ts.RebufferSec)},
			{"web requests completed", fmt.Sprintf("%d", ts.WebCompleted)},
		},
	}
}
