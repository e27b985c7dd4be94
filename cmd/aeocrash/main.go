// Command aeocrash runs the crash-consistency matrix: for every registered
// AeoFS crash point × {clean, torn} power-loss mode it runs a workload on a
// fresh simulated machine, crashes at the point, power-cycles the device,
// remounts, fscks, and diffs against the committed-file model. The points
// that sit between the pieces of a vectored write phase (sync:mid-journal,
// ckpt:mid-write) run a second time with two journal regions in every
// commit.
//
// Reproduce a single failing cell from a test log's repro line:
//
//	aeocrash -seed 7 -point sync:before-flush -torn
//	aeocrash -seed 7 -point sync:mid-journal -regions 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aeolia/internal/aeofs"
	"aeolia/internal/faultinject"
)

func main() {
	seed := flag.Uint64("seed", 1, "fault-plan seed")
	point := flag.String("point", "", "run only this crash point (default: full matrix)")
	torn := flag.Bool("torn", false, "with -point: torn power loss instead of clean")
	regions := flag.Int("regions", 1, "with -point: journal regions in every commit (1 or 2)")
	list := flag.Bool("list", false, "list registered crash points and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(aeofs.CrashPoints(), "\n"))
		return
	}

	var results []*faultinject.CellResult
	if *point != "" {
		results = []*faultinject.CellResult{
			faultinject.RunCell(faultinject.MatrixOptions{Seed: *seed, Point: *point, Torn: *torn, Regions: *regions}),
		}
	} else {
		results = faultinject.RunMatrix(faultinject.MatrixOptions{Seed: *seed})
	}

	table, failures := faultinject.Summarize(results)
	fmt.Print(table)
	if failures > 0 {
		fmt.Printf("aeocrash: %d/%d cells FAILED (seed %d)\n", failures, len(results), *seed)
		os.Exit(1)
	}
	fmt.Printf("aeocrash: all %d cells passed (seed %d)\n", len(results), *seed)
}
