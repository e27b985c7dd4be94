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
	"io"
	"os"
	"slices"
	"strings"

	"aeolia/internal/aeofs"
	"aeolia/internal/faultinject"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main over explicit streams; it returns the exit code: 0, 1 when a
// cell fails, 2 on a usage error (a flag the chosen mode would ignore, or a
// crash point or region count no cell can run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aeocrash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "fault-plan seed")
	point := fs.String("point", "", "run only this crash point (default: full matrix)")
	torn := fs.Bool("torn", false, "with -point: torn power loss instead of clean")
	regions := fs.Int("regions", 1, "with -point: journal regions in every commit (1 or 2)")
	list := fs.Bool("list", false, "list registered crash points and exit")
	usage := func(msg string) int {
		if msg != "" {
			fmt.Fprintf(stderr, "aeocrash: %s\n", msg)
		}
		fmt.Fprintf(stderr, "usage: aeocrash [-seed N] [-list] [-point P [-torn] [-regions 1|2]]\n"+
			"crash points: %s\n", strings.Join(aeofs.CrashPoints(), " "))
		return 2
	}
	fs.Usage = func() { usage("") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *point == "" && (set["torn"] || set["regions"]):
		return usage("-torn and -regions need -point")
	case *point != "" && !slices.Contains(aeofs.CrashPoints(), *point):
		return usage(fmt.Sprintf("unknown crash point %q", *point))
	case *regions != 1 && *regions != 2:
		return usage(fmt.Sprintf("-regions %d: a cell spans 1 or 2 journal regions", *regions))
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(aeofs.CrashPoints(), "\n"))
		return 0
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
	fmt.Fprint(stdout, table)
	if failures > 0 {
		fmt.Fprintf(stdout, "aeocrash: %d/%d cells FAILED (seed %d)\n", failures, len(results), *seed)
		return 1
	}
	fmt.Fprintf(stdout, "aeocrash: all %d cells passed (seed %d)\n", len(results), *seed)
	return 0
}
