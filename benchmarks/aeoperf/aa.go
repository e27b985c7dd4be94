package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// verdict compares one end-to-end metric between two runs of the same code.
// Values on the "sim" and "count" clocks are made by the program and must
// repeat exactly; "host" values must agree within the metric's bound.
func verdict(e e2eMetric, a, b float64) (ratioBA float64, ok bool) {
	ratioBA = ratio(b, a)
	if e.clock != "host" {
		return ratioBA, a == b
	}
	return ratioBA, math.Abs(b-a) <= e.bound*a
}

// runAA runs the suite twice on the same code, the second time in reverse
// workload order, and reports for every metric the two values, their ratio
// with its base, and whether they agree.
func runAA(o options) int {
	reversed := append([]workload(nil), workloads...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	first, okA := runSuite(o, workloads)
	second, okB := runSuite(o, reversed)
	pass := okA && okB
	type row struct {
		Workload, Metric string
		A, B, Ratio      float64
		Pass             bool
	}
	var rows []row
	fmt.Println("== A/A: two runs of the same code (ratio = second / first)")
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		for _, e := range endToEnd {
			va, vb := a.Metrics[e.name].Value, b.Metrics[e.name].Value
			r, ok := verdict(e, va, vb)
			rows = append(rows, row{w.name, e.name, va, vb, r, ok})
			pass = pass && ok
			fmt.Printf("  %-10s %-20s %14.6g %14.6g  x%.4f of %-12.6g %s\n", w.name, e.name, va, vb, r, va, passWord(ok))
		}
		ok := a.Failed == b.Failed && a.Attempted == b.Attempted
		pass = pass && ok
		fmt.Printf("  %-10s %-20s %14d %14d  %s\n", w.name, "failed", a.Failed, b.Failed, passWord(ok))
	}
	fmt.Println("A/A", passWord(pass))
	if err := writeJSON(o.out, "aa.json", map[string]any{"pass": pass, "rows": rows}); err != nil {
		fmt.Fprintln(os.Stderr, "aeoperf:", err)
	}
	if !pass {
		return 1
	}
	return 0
}

func passWord(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

// runSpread runs the end-to-end suite on seeds 1..10, prints for each metric
// of each workload the distance between its quartiles as a share of its
// median beside the metric's bound, and writes the observed load
// fingerprints to <out>/fingerprints.json (copy it over
// aeoperf/fingerprints.json after a deliberate change to a generator).
func runSpread(o options) int {
	const seeds = 10
	values := map[string]map[string][]float64{}
	prints := map[string]map[string]fingerprint{}
	ok := true
	for s := uint64(1); s <= seeds; s++ {
		o.seed, o.trace = s, 0
		res, good := runSuite(o, workloads)
		ok = ok && good
		for name, r := range res {
			if values[name] == nil {
				values[name], prints[name] = map[string][]float64{}, map[string]fingerprint{}
			}
			for k, v := range r.Metrics {
				values[name][k] = append(values[name][k], v.Value)
			}
			var out outcome
			if b, err := os.ReadFile(filepath.Join(o.out, "result_"+name+".json")); err == nil && json.Unmarshal(b, &out) == nil {
				prints[name][strconv.FormatUint(s, 10)] = out.Fingerprint
			}
		}
	}
	fmt.Printf("== spread over seeds 1..%d: (Q3-Q1)/median, against the bound\n", seeds)
	for _, w := range workloads {
		for _, e := range endToEnd {
			v := values[w.name][e.name]
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			med := median(v)
			spread := ratio(q3-q1, med)
			note := ""
			switch {
			case e.name == "setup_s":
			case spread > e.bound:
				note = "ABOVE BOUND"
			case spread > e.bound/3:
				note = "above a third of the bound"
			}
			fmt.Printf("  %-10s %-20s median %14.6g  spread %8.4f %%  bound %5.1f %%  %s\n",
				w.name, e.name, med, 100*spread, 100*e.bound, note)
		}
	}
	if err := writeJSON(o.out, "fingerprints.json", prints); err != nil {
		fmt.Fprintln(os.Stderr, "aeoperf:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
