// HSR replay: drive the Beijing–Taiyuan scenario across speeds and
// modes, reproduce the paper's reliability story (Table 5 shape) and
// show the TCP impact (Fig. 9 shape).
package main

import (
	"fmt"
	"log"

	"rem"
	"rem/internal/transport"
)

func main() {
	fmt.Println("Beijing–Taiyuan HSR replay: legacy vs REM (3 seeds × 2000 s)")
	fmt.Printf("%-10s %-8s %10s %10s %12s %18s\n",
		"speed", "mode", "handovers", "failures", "ratio", "TCP stall s/1000s")
	for _, speed := range []float64{220, 275} {
		for _, mode := range []rem.Mode{rem.ModeLegacy, rem.ModeREM} {
			var hos, fails int
			var stallTotal, simTotal float64
			for seed := int64(1); seed <= 3; seed++ {
				built, err := rem.BuildScenario(rem.ScenarioConfig{
					Dataset:  rem.BeijingTaiyuan,
					SpeedKmh: speed,
					Mode:     mode,
					Duration: 2000,
					Seed:     seed,
				})
				if err != nil {
					log.Fatal(err)
				}
				res, err := rem.RunScenario(built)
				if err != nil {
					log.Fatal(err)
				}
				hos += res.HandoverCount()
				fails += len(res.Failures)
				simTotal += res.Duration
				// TCP stalls from failure outages (handover
				// interruptions are too short to stall TCP).
				var outages []transport.Outage
				for _, o := range res.Outages {
					if o.Duration >= 0.2 {
						outages = append(outages, o)
					}
				}
				var runStall float64
				for _, st := range transport.ReplayStalls(outages, transport.DefaultStallConfig()) {
					runStall += st.Duration
				}
				stallTotal += runStall
			}
			fmt.Printf("%-10s %-8s %10d %10d %11.1f%% %18.1f\n",
				fmt.Sprintf("%.0f km/h", speed), mode,
				hos, fails, 100*float64(fails)/float64(hos+fails),
				stallTotal/simTotal*1000)
		}
	}
	fmt.Println("\nExpected shape: REM cuts the failure ratio and the TCP stall time at every speed.")
}
