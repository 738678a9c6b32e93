package transport

import (
	"rem/internal/obs"
)

// Observe publishes one UE's finished transport flow to its telemetry
// scope: the delivered/goodput/rebuffer metrics plus one
// transport_stall_open/close event pair per link stall. Nil-safe;
// stalls are already in start order because down windows close in
// time order.
func Observe(sc *obs.UEScope, tot Totals, stalls []Stall) {
	if sc == nil {
		return
	}
	sc.Shard.Counter(obs.MTPDelivered).Add(tot.DeliveredMbit)
	sc.Shard.Histogram(obs.MTPGoodput).Observe(tot.GoodputMbps)
	for i := 0; i < tot.Rebuffers; i++ {
		sc.Shard.Counter(obs.MTPRebuffers).Inc()
	}
	observeStalls(sc, stalls, obs.MTPStalls, obs.MTPStall, obs.EvTPStallOpen, obs.EvTPStallClose)
}

// ObserveTCPStalls replays a finished run's radio outages through the
// RTO model at its default timers (the paper's Fig. 9 TCP stalls) and
// publishes one tcp_stall_open/close event pair per stall. Nil-safe;
// ReplayStalls returns the stalls in start order.
func ObserveTCPStalls(sc *obs.UEScope, outages []Outage) {
	if sc == nil {
		return
	}
	observeStalls(sc, ReplayStalls(outages, DefaultStallConfig()), obs.MTCPStalls, obs.MTCPStall, obs.EvTCPStallOpen, obs.EvTCPStallClose)
}

// observeStalls counts each stall, observes its duration and records
// its open event (Value = final RTO reached) and close event (Value =
// stall duration), in stall order.
func observeStalls(sc *obs.UEScope, stalls []Stall, counter, hist, openKind, closeKind string) {
	n := sc.Shard.Counter(counter)
	h := sc.Shard.Histogram(hist)
	for _, st := range stalls {
		n.Inc()
		h.Observe(st.Duration)
		sc.Rec.Record(obs.Event{T: st.Start, Kind: openKind, Value: st.FinalRTO})
		sc.Rec.Record(obs.Event{T: st.Start + st.Duration, Kind: closeKind, Value: st.Duration})
	}
}
