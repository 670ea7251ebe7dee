// Message loss: the companion study's failure model [25] — every frame
// is dropped independently with probability p — as an extension sweep.
// FRODO's discovery-layer acknowledgements ride out loss that defeats
// single-shot notifications.
//
//	go run ./examples/messageloss
package main

import (
	"fmt"

	"repro/internal/experiment"
)

func main() {
	params := experiment.DefaultParams()
	params.Runs = 10
	params.Lambdas = []float64{0} // no interface failures; loss only

	fmt.Println("Update Effectiveness under i.i.d. message loss (10 runs/point):")
	fmt.Println()
	fmt.Printf("%-8s", "loss%")
	for _, sys := range experiment.Systems() {
		fmt.Printf("  %-8s", sys.Short())
	}
	fmt.Println()

	for _, loss := range []float64{0, 0.05, 0.10, 0.20, 0.30, 0.40} {
		fmt.Printf("%-8.0f", loss*100)
		for _, sys := range experiment.Systems() {
			res := experiment.Sweep(experiment.SweepConfig{
				Systems: []experiment.System{sys},
				Params:  params,
				Opts:    experiment.Options{Loss: loss},
			})
			fmt.Printf("  %-8.3f", res.Curves[sys].Points[0].Effectiveness)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("TCP-based UPnP/Jini retransmit at the transport; FRODO's selective")
	fmt.Println("acknowledgements (SRN1) plus SRN2 recover at the discovery layer —")
	fmt.Println("\"SRN1 is more useful during heavy message losses\" (§6.2).")
}
