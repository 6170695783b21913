// Command experiments regenerates every table and figure of the NN-Baton
// paper evaluation as text tables (see DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments -exp fig11        # one experiment
//	experiments -exp all -quick   # everything, reduced workloads
//	experiments -list             # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"

	"nnbaton/internal/cli"
	"nnbaton/internal/experiments"
)

func main() {
	shared := cli.Register(flag.CommandLine, "experiments", cli.Progress|cli.Checkpoint)
	exp := flag.String("exp", "all", "experiment id (or 'all')")
	quick := flag.Bool("quick", false, "reduced workloads for a fast pass")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()
	shared.MustValidate(nil)
	experiments.SetTopology(shared.Topology())
	if err := run(shared, *exp, *quick, *list); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run regenerates the selected experiments (or lists them) on an engine
// built from the shared flags, which it releases on every return.
func run(shared *cli.Flags, exp string, quick, list bool) error {
	cfg, err := shared.Setup()
	if err != nil {
		return err
	}
	experiments.SetEngineConfig(cfg)
	defer shared.Close(nil)
	all := experiments.All()
	if list {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return nil
	}
	ran := 0
	for _, e := range all {
		if exp != "all" && e.ID != exp {
			continue
		}
		fmt.Printf("### %s — %s\n\n", e.ID, e.Desc)
		if err := e.Run(os.Stdout, quick); err != nil {
			return fmt.Errorf("%s: %v", e.ID, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (try -list)", exp)
	}
	return nil
}
