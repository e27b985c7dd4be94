// Command aeobench regenerates the paper's evaluation tables and figures
// on the simulated testbed. It is one loop over the experiment registry:
// each named experiment's sweep runs and must pass the figure's acceptance
// predicate, then its traced cell (if it has one) runs and must pass the
// figure's trace checks. Any failure exits 1.
//
// Usage:
//
//	aeobench list                  # show available experiments
//	aeobench fig2 fig10 ...        # run specific experiments
//	aeobench all                   # run everything (several minutes)
//	aeobench -md all               # emit markdown (for EXPERIMENTS.md)
//	aeobench -json qdsweep         # emit one JSON document of every table
//	aeobench -trace t.json qdsweep # also write the traced cell as a Chrome trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aeolia/internal/experiments"
	"aeolia/internal/report"
	"aeolia/internal/trace"
)

func main() {
	os.Exit(run(experiments.All(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is main over an explicit registry and explicit streams; it returns the
// exit code: 0, 1 when an experiment's sweep, predicate, traced cell or
// output failed, 2 on a usage error.
func run(registry []*experiments.Experiment, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aeobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	md := fs.Bool("md", false, "emit markdown tables")
	jsonOut := fs.Bool("json", false, "emit JSON tables")
	traceOut := fs.String("trace", "", "write the one named experiment's traced cell to this file as Chrome trace_event JSON")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: aeobench [-md|-json] [-trace FILE] list | all | <experiment-id>...\n\n"+
			"Each experiment runs its sweep, which must pass the figure's acceptance\n"+
			"predicate, then its traced cell, which must pass its trace checks; a\n"+
			"failure of either exits 1.\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nexperiments (* = has a traced cell):\n")
		list(stderr, registry)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		return 2
	}
	if ids[0] == "list" {
		list(stdout, registry)
		return 0
	}
	todo := registry
	if ids[0] != "all" {
		todo = nil
		for _, id := range ids {
			e := lookup(registry, id)
			if e == nil {
				fmt.Fprintf(stderr, "aeobench: unknown experiment %q (try 'list')\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}
	if *traceOut != "" && (len(todo) != 1 || todo[0].Trace == nil) {
		fmt.Fprintf(stderr, "aeobench: -trace needs exactly one experiment that has a traced cell (try 'list')\n")
		return 2
	}

	var collected []*report.Table
	emit := func(tables []*report.Table) {
		for _, t := range tables {
			switch {
			case *jsonOut:
				collected = append(collected, t)
			case *md:
				t.Markdown(stdout)
			default:
				t.Print(stdout)
			}
		}
	}
	for _, e := range todo {
		start := time.Now()
		tables, err := e.Run()
		if err != nil {
			fmt.Fprintf(stderr, "aeobench: %s failed: %v\n", e.ID, err)
			return 1
		}
		emit(tables)
		if e.Trace != nil {
			traced, err := e.Trace()
			if traced != nil {
				emit(traced.Tables)
				fmt.Fprintf(stderr, "[%s traced cell: %d events, %s]\n", e.ID, len(traced.Events), traced.Summary)
				if *traceOut != "" {
					if werr := writeChrome(*traceOut, traced.Events); werr != nil {
						fmt.Fprintf(stderr, "aeobench: %v\n", werr)
						return 1
					}
				}
			}
			if err != nil {
				fmt.Fprintf(stderr, "aeobench: %s traced cell failed: %v\n", e.ID, err)
				return 1
			}
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		if err := report.WriteJSON(stdout, collected); err != nil {
			fmt.Fprintf(stderr, "aeobench: %v\n", err)
			return 1
		}
	}
	return 0
}

func list(w io.Writer, registry []*experiments.Experiment) {
	for _, e := range registry {
		mark := ' '
		if e.Trace != nil {
			mark = '*'
		}
		fmt.Fprintf(w, "%-15s %c %s\n", e.ID, mark, e.Title)
	}
}

func lookup(registry []*experiments.Experiment, id string) *experiments.Experiment {
	for _, e := range registry {
		if e.ID == id {
			return e
		}
	}
	return nil
}

func writeChrome(path string, evs []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
