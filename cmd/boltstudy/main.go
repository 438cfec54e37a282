// Command boltstudy runs the synthetic counterpart of the paper's EC2 user
// study (§4): it generates the 436-job, 20-user, 200-instance study,
// places the jobs, runs Bolt on every instance, and prints the Fig. 11
// occurrence PDF and the Fig. 12 detection-accuracy summary.
//
// Usage:
//
//	boltstudy [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"bolt/internal/exper"
)

func main() {
	seed := flag.Uint64("seed", 42, "study seed")
	flag.Parse()

	for _, id := range []string{"fig11", "fig12"} {
		e, ok := exper.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "boltstudy: experiment %s not registered\n", id)
			os.Exit(1)
		}
		e.Run(exper.Options{Seed: *seed}).Render(os.Stdout)
	}
}
