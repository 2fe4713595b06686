// Command perfbench is the repository benchmark: it runs one named
// workload of the HyperTRIO simulator for a fixed host-time budget,
// checks every operation's output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced replay) as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload ht-1k --seed 7 --seconds 24 --trace 0
//
// It runs from the root of the source tree it measures. README.md in
// this directory explains the workloads, the metrics and how to run a
// same-session A/B of two trees.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() { os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr)) }

// The benchmark runs from the root of the source tree it measures; the
// traced run writes its span file under outDir there.
const (
	repoDir = "."
	outDir  = ".bench_out"
)

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "host seconds of measurement")
	traced := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	env, err := environment(repoDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	in, err := prepare(w, *seed, repoDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var res *result
	if *traced == 1 {
		res, err = tracedRun(in, outDir, env, stderr)
	} else {
		res = timedRun(in, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := printResult(stdout, env, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// set records a metric; non-finite values (a ratio over an empty count)
// are reported as 0 so the line stays valid JSON.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally folds one operation's check outcome into the counts.
func (r *result) tally(err error, stderr io.Writer, what string) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(stderr, "perfbench: %s failed its output check: %v\n", what, err)
	}
}

// printResult writes the environment line and then the verdict as the
// last line of standard output.
func printResult(w io.Writer, env envInfo, r *result) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	line, err := json.Marshal(struct {
		Env envInfo `json:"env"`
	}{env})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
		return err
	}
	line, err = json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
