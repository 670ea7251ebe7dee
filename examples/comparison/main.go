// Comparison: benchmark all five systems of §5 at a few failure rates —
// a reduced-scale rendition of the paper's Figures 4-6.
//
//	go run ./examples/comparison
package main

import (
	"fmt"

	"repro/internal/experiment"
)

func main() {
	params := experiment.DefaultParams()
	params.Runs = 10
	params.Lambdas = []float64{0, 0.15, 0.30, 0.60, 0.90}

	fmt.Println("Sweeping 5 systems x 5 failure rates x 10 runs on all cores...")
	res := experiment.Sweep(experiment.SweepConfig{Params: params})

	fmt.Println()
	fmt.Println(experiment.Figure4(res))
	fmt.Println(experiment.Figure5(res))
	fmt.Println(experiment.Figure6(res))

	fmt.Println("Averages across the sampled failure rates:")
	for _, sys := range experiment.Systems() {
		r, f, g := res.Curves[sys].Average()
		fmt.Printf("  %-34s R=%.3f  F=%.3f  G=%.3f  (m'=%d)\n",
			sys.String(), r, f, g, res.MPrime[sys])
	}
	fmt.Println()
	fmt.Println("The paper's headline (Table 5): FRODO has the best overall consistency")
	fmt.Println("maintenance — highest responsiveness, least efficiency degradation,")
	fmt.Println("with SRN2 giving FRODO 2-party the best effectiveness below 30% failure.")
}
